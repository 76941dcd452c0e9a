"""IdScanSource capability: batch scans, sorted runs, snapshot safety."""

import numpy as np
import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.physical import _distinct_keys
from repro.store import (
    CrackingTripleStore,
    FederatedStore,
    MemoryStore,
    PagedTripleStore,
    as_id_scan_source,
)
from repro.store.base import IdScanSource
from repro.workload.rdf_graphs import typed_entities

EX = "http://example.org/data/"
RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def _triples():
    return list(typed_entities(150, n_classes=3, seed=41))


@pytest.fixture(params=["memory", "cracking", "paged"])
def store(request, tmp_path):
    triples = _triples()
    if request.param == "memory":
        built = MemoryStore(triples)
    elif request.param == "cracking":
        built = CrackingTripleStore(triples)
    else:
        built = PagedTripleStore.build(triples, str(tmp_path / "db"))
    return built


PATTERNS = [
    (None, None, None),
    (None, "type", None),
    ("entity3", None, None),
    ("entity3", "type", None),
    (None, "category0", "value"),
]


def _concrete(store, shape):
    s, p, o = shape
    subject = store.dictionary.lookup(IRI(EX + "entity3")) if s else None
    if p == "type":
        predicate = store.dictionary.lookup(RDF_TYPE)
    elif p:
        predicate = store.dictionary.lookup(IRI(EX + "category0"))
    else:
        predicate = None
    obj = store.dictionary.lookup(Literal("value0_0")) if o else None
    return subject, predicate, obj


class TestMatchIdBatches:
    @pytest.mark.parametrize("shape", PATTERNS)
    def test_batches_agree_with_triples(self, store, shape):
        s, p, o = _concrete(store, shape)
        rows = [
            tuple(row)
            for batch in store.match_id_batches(s, p, o)
            for row in batch.tolist()
        ]
        decoded = {
            store.dictionary.decode_triple((a, b, c)) for a, b, c in rows
        }
        pattern = tuple(
            None if x is None else store.dictionary.decode(x) for x in (s, p, o)
        )
        assert decoded == set(store.triples(pattern))
        assert len(rows) == len(set(rows))  # no duplicate id rows

    def test_batch_size_respected(self, store):
        sizes = [len(b) for b in store.match_id_batches(None, None, None, 64)]
        assert sum(sizes) == len(store)
        assert all(size <= 64 for size in sizes)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_distinct_ids_sorted_unique(self, store, position):
        _assert_grouped(store, None, position)

    def test_distinct_ids_with_bound_positions(self, store):
        _assert_grouped(store, store.dictionary.lookup(RDF_TYPE), 0)


def _assert_grouped(store, predicate, position):
    """The engine's group inverse over a scan column: the column's distinct
    ids, sorted, and every row numbered by its own id."""
    batches = store.match_id_batches(None, predicate, None)
    column = np.concatenate([batch[:, position] for batch in batches])
    keys, inverse = _distinct_keys([column])
    assert keys[:, 0].tolist() == sorted(set(column.tolist()))
    assert np.array_equal(keys[inverse, 0], column)


class TestCapabilityProbe:
    def test_id_scan_stores_probe_positive(self, store):
        assert as_id_scan_source(store) is store

    def test_runs_probes_and_a_dictionary_make_a_source(self, tmp_path):
        """The capability rule asks for nothing beyond the protocol: a
        ``MemoryStore`` and a ``PagedTripleStore`` are their own source."""
        triples = _triples()
        paged = PagedTripleStore.build(triples, str(tmp_path / "db"))
        for native in (MemoryStore(triples), paged):
            assert as_id_scan_source(native) is native
            assert isinstance(native, IdScanSource)
        paged.close()

    def test_graph_probes_negative(self):
        """No id runs of its own: the probe answers with an adaptor."""
        graph = Graph(_triples())
        assert as_id_scan_source(graph) is not graph
        _assert_adaptor_contract(graph)

    def test_federation_probes_negative(self):
        triples = _triples()
        federated = FederatedStore([
            ("one", MemoryStore(triples[:300])), ("two", Graph(triples[200:])),
        ])
        assert as_id_scan_source(federated) is not federated
        _assert_adaptor_contract(federated)


def _assert_adaptor_contract(source):
    """The encoding adaptor over ``source`` answers what the native store
    over the same triples answers, once both are decoded — for all eight
    bound-position masks, and for a constant it has not met."""
    native = MemoryStore(_triples())
    anchor = Triple(IRI(EX + "entity3"), RDF_TYPE, None)
    anchor = next(iter(native.triples(anchor)))
    absent = Triple(IRI(EX + "nobody"), IRI(EX + "nothing"), Literal("never"))
    for mask in range(8):
        for terms in (anchor, absent):
            pattern = [term if mask >> at & 1 else None for at, term in enumerate(terms)]
            adapted = as_id_scan_source(source)  # a fresh scratch dictionary
            ids = [None if t is None else adapted.dictionary.lookup(t) for t in pattern]
            batches = list(adapted.match_id_batches(*ids, batch_size=64))
            assert all(b.dtype == np.int64 and b.shape[1:] == (3,) for b in batches)
            assert all(0 < len(b) <= 64 for b in batches)
            decoded = [
                adapted.dictionary.decode_triple(row)
                for batch in batches for row in batch.tolist()
            ]
            expected = set(native.triples(tuple(pattern)))
            assert len(decoded) == len(expected) and set(decoded) == expected


class TestSnapshotConsistency:
    """Concurrent add() during a streaming scan must not break iteration."""

    def test_memory_store_add_during_match(self):
        memory = MemoryStore(_triples())
        iterator = memory.match_id_batches(None, None, None, 16)
        first = next(iterator)
        assert len(first) == 16
        # Mutate every index family mid-stream.
        memory.add(Triple(IRI(EX + "fresh"), RDF_TYPE, IRI(EX + "ClassX")))
        memory.add(Triple(IRI(EX + "fresh"), IRI(EX + "category9"), Literal("v")))
        consumed = sum(len(batch) for batch in iterator)
        assert consumed >= 0  # no RuntimeError from dict mutation

    def test_memory_store_add_during_bound_scan(self):
        memory = MemoryStore(_triples())
        predicate = memory.dictionary.lookup(RDF_TYPE)
        iterator = memory.match_id_batches(None, predicate, None, 8)
        next(iterator)
        memory.add(Triple(IRI(EX + "entity0"), RDF_TYPE, IRI(EX + "ClassZ")))
        for _ in iterator:
            pass  # must complete without RuntimeError


    def test_started_scan_is_unaffected_by_later_writes(self):
        """Stricter than "does not raise": the scan reads one generation."""
        memory = MemoryStore(_triples())
        predicate = memory.dictionary.lookup(RDF_TYPE)
        for pattern in [(None, None, None), (None, predicate, None)]:
            expected = np.concatenate(list(memory.match_id_batches(*pattern, 16)))
            iterator = memory.match_id_batches(*pattern, 16)
            yielded = [next(iterator)]
            assert memory.add(Triple(IRI(EX + "late"), RDF_TYPE, IRI(EX + "ClassW")))
            assert memory.remove((IRI(EX + "entity1"), None, None)) > 0
            yielded.extend(iterator)
            assert np.array_equal(np.concatenate(yielded), expected)
            after = np.concatenate(list(memory.match_id_batches(*pattern, 16)))
            assert not np.array_equal(after, expected)  # new scans do see them
            memory.remove((IRI(EX + "late"), None, None))
            memory.add_all(_triples())  # as it was, for the next pattern


class TestCrackingTripleStore:
    def test_dedup_and_len(self):
        triple = Triple(IRI(EX + "a"), RDF_TYPE, IRI(EX + "C"))
        cracking = CrackingTripleStore([triple, triple])
        cracking.add(triple)
        assert len(cracking) == 1

    def test_sorts_are_lazy_and_cached(self):
        cracking = CrackingTripleStore(_triples())
        assert cracking.sorts_paid == 0
        list(cracking.match_id_batches(None, None, None))
        paid_after_full_scan = cracking.sorts_paid
        predicate = cracking.dictionary.lookup(RDF_TYPE)
        list(cracking.match_id_batches(None, predicate, None))
        assert cracking.sorts_paid > paid_after_full_scan
        before = cracking.sorts_paid
        list(cracking.match_id_batches(None, predicate, None))
        assert cracking.sorts_paid == before  # cached access path

    def test_add_invalidates_sorted_paths(self):
        cracking = CrackingTripleStore(_triples())
        predicate = cracking.dictionary.lookup(RDF_TYPE)
        baseline = sum(
            len(b) for b in cracking.match_id_batches(None, predicate, None)
        )
        cracking.add(Triple(IRI(EX + "late"), RDF_TYPE, IRI(EX + "ClassY")))
        refreshed = sum(
            len(b) for b in cracking.match_id_batches(None, predicate, None)
        )
        assert refreshed == baseline + 1

    def test_count_and_statistics(self):
        triples = _triples()
        cracking = CrackingTripleStore(triples)
        memory = MemoryStore(triples)
        assert len(cracking) == len(memory)
        assert cracking.count((None, RDF_TYPE, None)) == memory.count(
            (None, RDF_TYPE, None)
        )
        ours, theirs = cracking.statistics(), memory.statistics()
        assert ours.triple_count == theirs.triple_count
        assert ours.distinct_subjects == theirs.distinct_subjects
        assert ours.predicate_cardinalities == theirs.predicate_cardinalities


class TestDecodeBatch:
    def test_matches_plain_decode(self):
        memory = MemoryStore(_triples())
        dictionary = memory.dictionary
        ids = list(range(len(dictionary)))
        batch = dictionary.decode_batch(ids)
        assert batch == [dictionary.decode(i) for i in ids]

    def test_repeats_decode_to_the_same_object(self):
        memory = MemoryStore(_triples())
        dictionary = memory.dictionary
        ids = [1, 2, 1, 2, 1]
        first = dictionary.decode_batch(ids)
        second = dictionary.decode_batch(ids)
        assert first == second
        assert first[0] is second[0] is first[2]  # the dictionary's own term

    def test_accepts_numpy_ids(self):
        memory = MemoryStore(_triples())
        dictionary = memory.dictionary
        ids = np.array([3, 4, 3], dtype=np.int64)
        assert dictionary.decode_batch(ids) == [
            dictionary.decode(3),
            dictionary.decode(4),
            dictionary.decode(3),
        ]
