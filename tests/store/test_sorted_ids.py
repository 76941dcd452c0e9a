"""Bulk answers read off sorted id runs, against plain Python models:
``MemoryStore.probe_ids`` — a gather through the bound id's adjacency —
through both of its branches (plain and ragged), and ``unique_ids``."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf import IRI, Literal, Triple
from repro.store import MemoryStore
from repro.store.base import unique_ids

EX = "http://example.org/"
ENTITIES = [IRI(f"{EX}e{i}") for i in range(6)]
P, Q = IRI(EX + "p"), IRI(EX + "q")
SECOND = Literal(99)  # the extra ``p`` value of the multi-valued key


def _store_and_anchor(kind, data):
    """A store and the triple whose ids bind the probes' third position.

    Each of the first ``size`` entities has one ``p`` literal and one
    ``q`` IRI, both drawn injectively, so a probe of any (key, value)
    position pair with the third bound to a stored id matches every key
    at most once. The multi-valued kind gives one entity a second ``p``
    value and anchors on that triple. Triples go in in a drawn order, so
    the dictionary's ids come in any order too.
    """
    model = set()
    if kind == "empty":
        return MemoryStore(), model, None
    size = data.draw(st.integers(1, len(ENTITIES)), label="size")
    p_values = data.draw(st.permutations(range(len(ENTITIES))))
    q_values = data.draw(st.permutations(range(len(ENTITIES))))
    for index in range(size):
        model.add(Triple(ENTITIES[index], P, Literal(p_values[index])))
        model.add(Triple(ENTITIES[index], Q, IRI(f"{EX}c{q_values[index]}")))
    if kind == "single-valued":
        anchor = data.draw(st.sampled_from(sorted(model, key=repr)), label="anchor")
    else:
        anchor = Triple(ENTITIES[data.draw(st.integers(0, size - 1))], P, SECOND)
        model.add(anchor)
    store = MemoryStore(data.draw(st.permutations(sorted(model, key=repr))))
    return store, model, anchor


@pytest.mark.parametrize("kind", ["single-valued", "one multi-valued key", "empty"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_probe_ids_agrees_with_a_set_model(kind, data):
    store, model, anchor = _store_and_anchor(kind, data)
    store.statistics()  # sorts every run before np.repeat is watched
    lookup = store.dictionary.lookup
    id_model = {tuple(lookup(term) for term in triple) for triple in model}
    anchor_ids = (0, 0, 0) if anchor is None else tuple(map(lookup, anchor))
    absent = len(store.dictionary) + 3
    unbound = -1  # a batch's unbound cell: it must match nothing
    with mock.patch.object(np, "repeat", wraps=np.repeat) as ragged:
        for key_position, value_position in itertools.permutations(range(3), 2):
            fixed = 3 - key_position - value_position
            pattern = [None, None, None]
            pattern[fixed] = anchor_ids[fixed]
            present = sorted({row[key_position] for row in id_model})
            extra = data.draw(
                st.lists(
                    st.sampled_from(present + [absent, absent + 1, unbound]),
                    max_size=8,
                )
            )
            keys = np.array(
                data.draw(st.permutations(present + [absent, unbound] + extra)),
                dtype=np.int64,
            )
            counts, values = store.probe_ids(
                *pattern, key_position, keys, value_position
            )
            expected = [
                sorted(
                    row[value_position] for row in id_model
                    if row[key_position] == key and row[fixed] == pattern[fixed]
                )
                for key in keys.tolist()
            ]
            assert counts.dtype == values.dtype == np.int64
            assert counts.tolist() == [len(matches) for matches in expected]
            assert values.tolist() == [v for matches in expected for v in matches]
    # The ragged gather runs exactly when a key matched twice: the
    # multi-valued key, probed with ``p`` or it bound.
    assert ragged.called == (kind == "one multi-valued key")


_id_arrays = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
    st.lists(st.integers(0, 5), max_size=60),
    st.builds(lambda value, n: [value] * n, st.integers(0, 2**31), st.integers(0, 20)),
).map(lambda values: np.array(values, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(_id_arrays)
@example(np.empty(0, dtype=np.int64))
@example(np.full(7, 3, dtype=np.int64))
def test_unique_ids_equals_np_unique(ids):
    distinct = unique_ids(ids)
    assert distinct.dtype == np.int64
    assert np.array_equal(distinct, np.unique(ids))


def test_unique_ids_on_large_random_columns():
    rng = np.random.default_rng(0)
    for size in (1, 7_658, 30_000):
        ids = rng.integers(0, size, size, dtype=np.int64)
        assert np.array_equal(unique_ids(ids), np.unique(ids))
