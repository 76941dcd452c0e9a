"""Unit tests for the dictionary-encoded MemoryStore."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, IRI, Literal, RDF, Triple
from repro.store import MemoryStore, TripleSource

EX = "http://example.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture
def store() -> MemoryStore:
    s = MemoryStore()
    s.add(Triple(ex("alice"), RDF.type, ex("Person")))
    s.add(Triple(ex("bob"), RDF.type, ex("Person")))
    s.add(Triple(ex("alice"), ex("knows"), ex("bob")))
    s.add(Triple(ex("alice"), ex("age"), Literal(30)))
    s.add(Triple(ex("bob"), ex("age"), Literal(25)))
    return s


class TestBasics:
    def test_satisfies_triple_source_protocol(self, store):
        assert isinstance(store, TripleSource)

    def test_len(self, store):
        assert len(store) == 5

    def test_duplicate_insert_ignored(self, store):
        assert not store.add(Triple(ex("alice"), RDF.type, ex("Person")))
        assert len(store) == 5

    def test_add_all_counts(self):
        s = MemoryStore()
        t = Triple(ex("a"), ex("p"), ex("b"))
        assert s.add_all([t, t, Triple(ex("c"), ex("p"), ex("d"))]) == 2

    def test_contains(self, store):
        assert Triple(ex("alice"), ex("knows"), ex("bob")) in store
        assert Triple(ex("bob"), ex("knows"), ex("alice")) not in store

    def test_iteration_yields_all(self, store):
        assert len(set(store)) == 5


class TestPatterns:
    def test_unknown_term_short_circuits(self, store):
        assert list(store.triples((ex("nobody"), None, None))) == []
        assert store.count((None, None, Literal("never-seen"))) == 0

    def test_subject_bound(self, store):
        assert store.count((ex("alice"), None, None)) == 3

    def test_predicate_bound(self, store):
        objs = {t.object for t in store.triples((None, ex("age"), None))}
        assert objs == {Literal(30), Literal(25)}

    def test_object_bound(self, store):
        subjects = {t.subject for t in store.triples((None, None, ex("Person")))}
        assert subjects == {ex("alice"), ex("bob")}

    def test_fully_bound(self, store):
        matches = list(store.triples((ex("alice"), ex("age"), Literal(30))))
        assert matches == [Triple(ex("alice"), ex("age"), Literal(30))]

    def test_counts_agree_with_materialized(self, store):
        patterns = [
            (None, None, None),
            (ex("alice"), None, None),
            (None, RDF.type, None),
            (None, None, ex("Person")),
            (ex("alice"), ex("age"), None),
            (None, ex("age"), Literal(25)),
        ]
        for pattern in patterns:
            assert store.count(pattern) == len(list(store.triples(pattern)))

    def test_remove(self, store):
        assert store.remove((None, ex("age"), None)) == 2
        assert len(store) == 3
        assert store.count((None, ex("age"), None)) == 0


class TestEquivalenceWithGraph:
    def test_same_answers_as_graph(self):
        triples = [
            Triple(ex(f"s{i % 7}"), ex(f"p{i % 3}"), Literal(i % 5)) for i in range(60)
        ]
        graph = Graph(triples)
        store = MemoryStore(triples)
        assert len(graph) == len(store)
        patterns = [
            (None, None, None),
            (ex("s1"), None, None),
            (None, ex("p2"), None),
            (None, None, Literal(3)),
            (ex("s2"), ex("p0"), None),
        ]
        for pattern in patterns:
            assert set(graph.triples(pattern)) == set(store.triples(pattern))


class TestStatistics:
    def test_predicate_cardinality(self, store):
        pid = store.dictionary.lookup(ex("age"))
        assert store.count_ids(None, pid, None) == 2

    def test_id_triples_count(self, store):
        assert len(list(store.id_triples())) == 5


# ---------------------------------------------------------------------------
# Model-based checks: every read surface against a plain Python set
# ---------------------------------------------------------------------------

SUBJECTS = [ex(f"s{i}") for i in range(4)]
PREDICATES = [ex(f"p{i}") for i in range(3)]
# Objects reuse two subject IRIs, so one id shows up in several positions.
OBJECTS = [ex("s0"), ex("s1"), Literal(0), Literal(1)]
UNIVERSE = (SUBJECTS, PREDICATES, OBJECTS)
SHAPES = list(itertools.product((False, True), repeat=3))  # bound positions

_triples = st.builds(
    Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)
_patterns = st.tuples(
    *(st.one_of(st.none(), st.sampled_from(terms)) for terms in UNIVERSE)
)
# (operation, argument, check every read surface afterwards?) — unchecked
# steps let writes pile up in the delta before the next read folds them.
_steps = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("add"), _triples),
            st.tuples(st.just("remove"), _patterns),
        ),
        st.booleans(),
    ),
    max_size=30,
)


def _matching(model, pattern):
    return {
        t for t in model
        if all(want is None or want == got for want, got in zip(pattern, t))
    }


def _check_pattern(store, model, pattern):
    expected = _matching(model, pattern)
    found = list(store.triples(pattern))
    assert len(found) == len(expected) and set(found) == expected
    assert store.count(pattern) == len(expected)

    lookup = store.dictionary.lookup
    ids = tuple(None if term is None else lookup(term) for term in pattern)
    if any(term is not None and i is None for term, i in zip(pattern, ids)):
        return  # a term the dictionary never saw: no id-level question to ask
    expected_ids = {tuple(lookup(term) for term in t) for t in expected}
    for batch_size in (1, 7, 4096):
        batches = list(store.match_id_batches(*ids, batch_size))
        for batch in batches:
            assert batch.dtype == np.int64 and batch.shape[1] == 3
            assert 0 < len(batch) <= batch_size
            assert not batch.flags.writeable
        assert all(len(batch) == batch_size for batch in batches[:-1])
        rows = [tuple(row) for batch in batches for row in batch.tolist()]
        assert len(rows) == len(expected_ids) and set(rows) == expected_ids


def _check_probes(store, model, anchor):
    """Every (key, value) position pair, the third position bound to the
    anchor's id, left open, or bound beside the key position; the one
    shape refused is key and value at the same position."""
    lookup = store.dictionary.lookup
    anchor_ids = tuple(lookup(term) for term in anchor)
    id_model = {tuple(lookup(term) for term in t) for t in model}
    absent = len(store.dictionary) + 5
    for key_position, value_position in itertools.permutations(range(3), 2):
        fixed = 3 - key_position - value_position
        bound_third = [None, None, None]
        bound_third[fixed] = anchor_ids[fixed]
        bound_key = list(bound_third)
        bound_key[key_position] = anchor_ids[key_position]
        present = sorted({row[key_position] for row in id_model})
        keys = np.array(present[::-1] + [absent] + present[:1], dtype=np.int64)
        for pattern in (bound_third, [None, None, None], bound_key):
            counts, values = store.probe_ids(
                *pattern, (key_position,), keys[:, None], (value_position,)
            )
            assert counts.dtype == values.dtype == np.int64
            assert len(counts) == len(keys) and values.shape == (counts.sum(), 1)
            offset = 0
            for key, count in zip(keys.tolist(), counts.tolist()):
                wanted = sorted(
                    row[value_position] for row in id_model
                    if row[key_position] == key
                    and all(row[at] == pattern[at] for at in range(3) if pattern[at] is not None)
                )
                assert sorted(values[offset : offset + count, 0].tolist()) == wanted
                offset += count
        with pytest.raises(LookupError):
            store.probe_ids(*bound_third, (key_position,), keys[:, None], (key_position,))


def _check_everything(store, model):
    assert len(store) == len(model)
    assert all(t in store for t in model)
    decode = store.dictionary.decode_triple
    id_triples = list(store.id_triples())
    assert len(id_triples) == len(model)
    assert {decode(ids) for ids in id_triples} == model

    # Each shape twice: bound to a stored triple, and to a corner of the
    # universe that may or may not be stored.
    anchors = [(SUBJECTS[-1], PREDICATES[-1], OBJECTS[-1])]
    if model:
        anchors.append(min(model, key=repr))
    for anchor in anchors:
        assert (Triple(*anchor) in store) == (Triple(*anchor) in model)
        for shape in SHAPES:
            _check_pattern(
                store, model,
                tuple(term if bound else None for term, bound in zip(anchor, shape)),
            )
    _check_pattern(store, model, (ex("never-added"), None, None))
    if model:
        _check_probes(store, model, anchors[-1])

    snapshot = store.statistics()
    assert snapshot.triple_count == len(model)
    assert snapshot.distinct_subjects == len({t.subject for t in model})
    assert snapshot.distinct_predicates == len({t.predicate for t in model})
    assert snapshot.distinct_objects == len({t.object for t in model})
    cards, distincts = {}, {}
    for t in model:
        cards[t.predicate] = cards.get(t.predicate, 0) + 1
        distincts.setdefault(t.predicate, set()).add(t.object)
    assert dict(snapshot.predicate_cardinalities) == cards
    assert dict(snapshot.predicate_distinct_objects) == {
        predicate: len(objects) for predicate, objects in distincts.items()
    }


@settings(max_examples=120, deadline=None)
@given(_steps)
def test_store_agrees_with_a_set_model(steps):
    store, model = MemoryStore(), set()
    for (operation, argument), check in steps:
        if operation == "add":
            assert store.add(argument) == (argument not in model)
            model.add(argument)
        else:
            doomed = _matching(model, argument)
            assert store.remove(argument) == len(doomed)
            model -= doomed
        assert len(store) == len(model)
        if check:
            _check_everything(store, model)
    _check_everything(store, model)


def _numbered(count: int, start: int = 0) -> list[Triple]:
    return [
        Triple(ex(f"n{i % 997}"), ex(f"q{i % 7}"), Literal(i))
        for i in range(start, start + count)
    ]


class TestGenerations:
    def test_batches_held_by_a_reader_never_change(self):
        store = MemoryStore(_numbered(60))
        held = list(store.match_id_batches(None, None, None, 7))
        before = [batch.copy() for batch in held]
        store.add_all(_numbered(30, start=60))
        assert store.remove((None, ex("q3"), None)) > 0
        assert store.count() == len(store) < 90  # a read: the writes are folded
        for batch, copy in zip(held, before):
            assert np.array_equal(batch, copy)
            assert not batch.flags.writeable
            with pytest.raises(ValueError):
                batch[0, 0] = 0

    def test_read_after_writes_merges_without_resorting_the_base(self, monkeypatch):
        base, fresh = _numbered(2_000), _numbered(25, start=2_000)
        store = MemoryStore(base)
        store.statistics()  # touches SPO, POS and OSP
        assert store.sorts_paid == 3
        sorted_sizes = []
        lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            sorted_sizes.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        store.add_all(fresh)
        _check_everything(store, set(base + fresh))
        assert store.sorts_paid == 3
        assert sorted_sizes and max(sorted_sizes) == len(fresh)

    def test_loaded_store_is_compact(self):
        store = MemoryStore(_numbered(50_000))
        store.statistics()
        assert not store._delta and not store._dirty
        runs = store._generation.runs
        assert all(run is not None for run in runs)
        index_bytes = sum(run.cols.nbytes + run.keys.nbytes for run in runs)
        assert index_bytes <= 128 * len(store)

    def test_ids_that_do_not_fit_the_composite_key_are_refused(self, monkeypatch):
        store = MemoryStore(_numbered(5))
        monkeypatch.setattr(
            store.dictionary, "encode_triple", lambda triple: (0, 2**31, 1)
        )
        with pytest.raises(OverflowError):
            store.add(_numbered(1, start=5)[0])
        assert len(store) == store.count() == 5

