"""Bulk answers read off sorted id runs, against plain Python models:
``probe_ids`` of every shape on ``MemoryStore`` (its star probe, a gather
through the bound id's adjacency, through both of its branches, plain and
ragged) and on the generic per-key ``probe_ids_of`` (the encoding adaptor,
the paged store); and ``unique_ids``."""

import itertools
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st

from repro.rdf import IRI, Literal, Triple
from repro.store import MemoryStore, PagedTripleStore, as_id_scan_source
from repro.store.base import unique_ids
from tests.helpers import rows_only

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


#: Key cells that are no term's id: an unbound cell, a computed term
#: (ids <= -2) and an id the dictionary never assigned.
UNBOUND, COMPUTED, ABSENT = -1, -7, "absent"


def _run_order(bound):
    """The positions in the order of the run (SPO, POS, OSP) whose key
    prefix the ``bound`` positions are."""
    for lead in range(3):
        order = (lead, (lead + 1) % 3, (lead + 2) % 3)
        if set(order[: len(bound)]) == bound:
            return order
    raise AssertionError(bound)


@st.composite
def _shapes(draw, terms):
    """A probe in term space: ``(pattern, key positions, key rows, value
    positions)``. Positions may repeat and constants may sit at key or
    value positions; key cells are mostly projections of stored triples."""
    cells = st.sampled_from([UNBOUND, COMPUTED, ABSENT] + sorted(
        {term for triple in terms for term in triple}, key=repr
    ))
    key_positions = tuple(draw(st.lists(st.integers(0, 2), max_size=3)))
    others = [at for at in range(3) if at not in key_positions]
    value_positions = tuple(
        draw(st.lists(st.sampled_from(others), max_size=2)) if others else ()
    )
    anchor = draw(st.sampled_from(terms)) if terms else None
    pattern = [
        anchor[at] if anchor is not None and draw(st.integers(0, 2)) == 0 else None
        for at in range(3)
    ]
    projected = [tuple(triple[at] for at in key_positions) for triple in terms]
    row = st.tuples(*[cells] * len(key_positions))
    if projected:
        row = st.one_of(st.sampled_from(projected), st.sampled_from(projected), row)
    rows = draw(st.lists(row, max_size=8))
    return pattern, key_positions, rows, value_positions


def _answer(id_model, pattern, key_positions, keys, value_positions):
    """``probe_ids`` of the set model: each key row's matches in run order."""
    bound = {at for at in range(3) if pattern[at] is not None} | set(key_positions)
    order = _run_order(bound)
    counts, values = [], []
    for key in keys:
        matches = sorted(
            (
                row for row in id_model
                if all(row[at] == pattern[at] for at in range(3) if pattern[at] is not None)
                and all(row[at] == cell for at, cell in zip(key_positions, key))
            ),
            key=lambda row: [row[at] for at in order],
        )
        counts.append(len(matches))
        values += [[row[at] for at in value_positions] for row in matches]
    return counts, values


def _sources(store, model, directory):
    """The store, and the generic per-key probe over the same triples: the
    encoding adaptor and the paged store."""
    yield store
    yield as_id_scan_source(rows_only(store))
    yield PagedTripleStore.build(sorted(model, key=repr), directory)


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
    with mock.patch.object(np, "repeat", wraps=np.repeat) as ragged:
        for key_position, value_position in itertools.permutations(range(3), 2):
            fixed = 3 - key_position - value_position
            pattern = [None, None, None]
            pattern[fixed] = anchor_ids[fixed]
            present = sorted({row[key_position] for row in id_model})
            extra = data.draw(
                st.lists(
                    st.sampled_from(present + [absent, absent + 1, UNBOUND, COMPUTED]),
                    max_size=8,
                )
            )
            keys = np.array(
                data.draw(st.permutations(present + [absent, UNBOUND, COMPUTED] + extra)),
                dtype=np.int64,
            )
            counts, values = store.probe_ids(
                *pattern, (key_position,), keys[:, None], (value_position,)
            )
            expected = _answer(id_model, pattern, (key_position,), keys[:, None].tolist(),
                               (value_position,))
            assert counts.dtype == values.dtype == np.int64
            assert (counts.tolist(), values.tolist()) == expected
    # The star probe's ragged gather runs exactly when a key matched twice:
    # the multi-valued key, probed with ``p`` or it bound.
    assert ragged.called == (kind == "one multi-valued key")

    shapes = data.draw(st.lists(_shapes(sorted(model, key=repr)), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as directory:
        for source in _sources(store, model, directory):
            try:
                dictionary = source.dictionary
                model_ids = {tuple(map(dictionary.lookup, triple)) for triple in model}
                never = len(dictionary) + 3

                def encode(cell):
                    if cell is None or isinstance(cell, int):
                        return cell
                    return never if cell == ABSENT else dictionary.lookup(cell)

                for pattern, key_positions, rows, value_positions in shapes:
                    pattern = [encode(term) for term in pattern]
                    keys = np.array(
                        [[encode(cell) for cell in row] for row in rows], dtype=np.int64
                    ).reshape(len(rows), len(key_positions))
                    note(f"{type(source).__name__} {pattern} {key_positions} "
                         f"{keys.tolist()} {value_positions}")
                    counts, values = source.probe_ids(
                        *pattern, key_positions, keys, value_positions
                    )
                    assert counts.dtype == values.dtype == np.int64
                    assert values.shape == (counts.sum(), len(value_positions))
                    assert (counts.tolist(), values.tolist()) == _answer(
                        model_ids, pattern, key_positions, keys.tolist(), value_positions
                    )
                # The one shape refused: a position both key and value.
                with pytest.raises(LookupError):
                    source.probe_ids(None, None, None, (0,), np.zeros((1, 1), np.int64), (0,))
            finally:
                if isinstance(source, PagedTripleStore):
                    source.close()


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
