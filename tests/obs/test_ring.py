"""The one bounded history: kept items, sequence numbers, counts."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.ring import Ring

# An operation is an item to append, or None for a clear().
OPERATIONS = st.lists(st.one_of(st.integers(), st.none()), max_size=60)


@given(capacity=st.integers(min_value=1, max_value=8), operations=OPERATIONS)
def test_matches_a_list_model(capacity, operations):
    ring = Ring(capacity)
    model: list[int] = []
    total = dropped = 0
    for item in operations:
        if item is None:
            ring.clear()
            model, total, dropped = [], 0, 0
            continue
        sequence = ring.add(lambda seq, item=item: (seq, item))[0]
        assert sequence == total
        model.append(item)
        total += 1
        dropped += len(model) > capacity
        model = model[-capacity:]
        assert [value for _, value in ring.items()] == model
        assert (ring.total, ring.dropped, len(ring)) == (total, dropped,
                                                        len(model))
    assert [value for _, value in ring.items()] == model
    assert (ring.total, ring.dropped) == (total, dropped)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Ring(0)


def test_wraparound_under_concurrent_writers():
    """Eight writers: unique sequences, no tearing, the newest kept."""
    ring = Ring(64)
    writers, per_writer = 8, 500

    def write(worker: int) -> None:
        for index in range(per_writer):
            ring.add(lambda seq: (seq, worker, index))

    threads = [threading.Thread(target=write, args=(worker,))
               for worker in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = writers * per_writer
    assert (ring.total, ring.dropped) == (total, total - 64)
    kept = ring.items()
    # exactly the latest `capacity` sequence numbers, each once, in order
    assert [seq for seq, _, _ in kept] == list(range(total - 64, total))
    # and each writer's items in the order it wrote them
    for worker in range(writers):
        mine = [index for _, who, index in kept if who == worker]
        assert mine == sorted(mine)
