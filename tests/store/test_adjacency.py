"""A predicate's adjacency — what ``MemoryStore.probe_ids`` gathers
through — is built once per generation, however many threads probe it
first, and a write publishes a generation without it."""

import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np

from repro.rdf import IRI, Literal, Triple
from repro.store import MemoryStore, memory

EX = "http://example.org/"
P, Q = IRI(EX + "p"), IRI(EX + "q")
THREADS = 8


def _probe_answer(id_model, predicate, keys):
    """``probe_ids(None, predicate, None, 0, keys, 2)`` of the set model."""
    expected = [
        sorted(o for s, p, o in id_model if s == key and p == predicate)
        for key in keys
    ]
    return [len(m) for m in expected], [o for m in expected for o in m]


def test_eight_first_probes_build_one_adjacency():
    model = {
        Triple(IRI(f"{EX}e{i}"), P, Literal(value))
        for i in range(200)
        for value in range(i % 3)  # none, one or two values per subject
    }
    model |= {Triple(IRI(f"{EX}e{i}"), Q, Literal("q")) for i in range(200)}
    store = MemoryStore(sorted(model, key=repr))
    lookup = store.dictionary.lookup
    predicate = lookup(P)
    subjects = [lookup(IRI(f"{EX}e{i}")) for i in range(200)]
    keys = np.array(subjects[::-1] + [-1, len(store.dictionary) + 7], dtype=np.int64)
    store.probe_ids(None, predicate, None, 0, keys, 2)
    old = store._generation
    # A write: the next read publishes a fresh generation, without the
    # adjacency the old one holds.
    extra = Triple(IRI(EX + "e0"), P, Literal(1000))
    store.add(extra)
    model.add(extra)
    id_model = {tuple(lookup(term) for term in triple) for triple in model}
    expected = _probe_answer(id_model, predicate, keys.tolist())

    barrier = threading.Barrier(THREADS)

    def first_probe(_):
        barrier.wait()
        counts, values = store.probe_ids(None, predicate, None, 0, keys, 2)
        return counts.tolist(), values.tolist()

    real = memory._Run.adjacency
    with mock.patch.object(
        memory._Run, "adjacency", autospec=True, side_effect=real
    ) as built:
        with ThreadPoolExecutor(THREADS) as pool:
            answers = list(pool.map(first_probe, range(THREADS)))
    assert answers == [expected] * THREADS
    assert built.call_count == 1
    generation = store._generation
    assert generation is not old and list(old.adjacency) == [(predicate, 0)]
    assert list(generation.adjacency) == [(predicate, 0)]


def test_only_a_predicate_s_adjacencies_are_kept():
    store = MemoryStore([
        Triple(IRI(EX + "a"), P, IRI(EX + "b")),
        Triple(IRI(EX + "b"), P, IRI(EX + "a")),
    ])
    a, p, b = (store.dictionary.lookup(IRI(EX + n)) for n in "apb")
    keys = np.array([a, b, -1], dtype=np.int64)
    assert store.probe_ids(None, p, None, 0, keys, 2)[0].tolist() == [1, 1, 0]
    assert store.probe_ids(None, p, None, 2, keys, 0)[0].tolist() == [1, 1, 0]
    by_predicate = np.array([p, a, -1], dtype=np.int64)
    assert store.probe_ids(a, None, None, 1, by_predicate, 2)[0].tolist() == [1, 0, 0]
    assert store.probe_ids(None, None, a, 0, keys, 1)[0].tolist() == [0, 1, 0]
    assert store.probe_ids(b, None, None, 2, keys, 1)[0].tolist() == [1, 0, 0]
    assert sorted(store._generation.adjacency) == [(p, 0), (p, 2)]
