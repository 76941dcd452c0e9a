"""Store statistics: snapshots, protocol conformance, persistence, staleness."""

import os
import struct
import sys
import threading

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, Triple
from repro.store import (
    FederatedStore,
    MemoryStore,
    PagedTripleStore,
    StatisticsSnapshot,
    StoreStatistics,
    compute_statistics,
)
from repro.workload.rdf_graphs import typed_entities

EX = Namespace("http://example.org/stat/")


def small_triples():
    return [
        Triple(EX.a, EX.p, EX.b),
        Triple(EX.a, EX.p, EX.c),
        Triple(EX.b, EX.q, Literal(1)),
        Triple(EX.c, EX.q, Literal(2)),
        Triple(EX.c, EX.r, Literal("x")),
    ]


class TestComputeStatistics:
    def test_exact_counts(self):
        snapshot = compute_statistics(Graph(small_triples()))
        assert snapshot.triple_count == 5
        assert snapshot.distinct_subjects == 3  # a, b, c
        assert snapshot.distinct_predicates == 3  # p, q, r
        assert snapshot.distinct_objects == 5  # b, c, 1, 2, "x"
        assert snapshot.predicate_count(EX.p) == 2
        assert snapshot.predicate_count(EX.q) == 2
        assert snapshot.predicate_count(EX.r) == 1

    def test_absent_predicate_counts_zero(self):
        snapshot = compute_statistics(Graph(small_triples()))
        assert snapshot.predicate_count(EX.missing) == 0

    def test_average_degrees(self):
        snapshot = compute_statistics(Graph(small_triples()))
        assert snapshot.avg_subject_degree == pytest.approx(5 / 3)
        assert snapshot.avg_object_degree == pytest.approx(1.0)

    def test_empty_source(self):
        snapshot = compute_statistics(Graph())
        assert snapshot.triple_count == 0
        assert snapshot.avg_subject_degree == 0.0


class TestProtocol:
    def test_stores_satisfy_protocol(self, tmp_path):
        paged = PagedTripleStore.build(small_triples(), str(tmp_path / "pg"))
        stores = [
            Graph(small_triples()),
            MemoryStore(small_triples()),
            paged,
            FederatedStore([("one", Graph(small_triples()))]),
        ]
        for store in stores:
            assert isinstance(store, StoreStatistics)
        paged.close()

    def test_plain_object_does_not_satisfy_protocol(self):
        assert not isinstance(object(), StoreStatistics)

    def test_all_stores_agree_with_full_scan(self, tmp_path):
        triples = list(typed_entities(60, seed=5))
        reference = compute_statistics(Graph(triples))
        paged = PagedTripleStore.build(triples, str(tmp_path / "pg"))
        for store in (Graph(triples), MemoryStore(triples), paged):
            snapshot = store.statistics()
            assert snapshot.triple_count == reference.triple_count
            assert snapshot.distinct_subjects == reference.distinct_subjects
            assert snapshot.distinct_predicates == reference.distinct_predicates
            assert snapshot.distinct_objects == reference.distinct_objects
            assert dict(snapshot.predicate_cardinalities) == dict(
                reference.predicate_cardinalities
            )
        paged.close()


class TestInvalidation:
    @pytest.mark.parametrize("factory", [Graph, MemoryStore])
    def test_add_refreshes_snapshot(self, factory):
        store = factory(small_triples())
        assert store.statistics().triple_count == 5
        store.add(Triple(EX.d, EX.p, EX.a))
        snapshot = store.statistics()
        assert snapshot.triple_count == 6
        assert snapshot.predicate_count(EX.p) == 3

    @pytest.mark.parametrize("factory", [Graph, MemoryStore])
    def test_remove_refreshes_snapshot(self, factory):
        store = factory(small_triples())
        store.statistics()
        store.remove((EX.a, EX.p, None))
        snapshot = store.statistics()
        assert snapshot.triple_count == 3
        assert snapshot.predicate_count(EX.p) == 0

    def test_snapshot_object_is_cached_between_queries(self):
        store = MemoryStore(small_triples())
        assert store.statistics() is store.statistics()

    def test_concurrent_add_never_leaves_a_stale_snapshot(self):
        """A snapshot built while add() runs must not outlive the add.

        The snapshot used to be stored in a store-level slot that add()
        reset: a build that had started before the reset stored its stale
        result after it, and the planner trusted it until the next write.
        """
        store = MemoryStore(small_triples())
        fresh = [
            Triple(EX[f"s{i % 50}"], EX[f"p{i % 5}"], Literal(i)) for i in range(1500)
        ]
        done = threading.Event()
        problems: list[BaseException] = []

        def write():
            try:
                for triple in fresh:
                    store.add(triple)
            except BaseException as exc:  # surfaced by the assert below
                problems.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    snapshot = store.statistics()
                    assert snapshot.triple_count == sum(
                        snapshot.predicate_cardinalities.values()
                    )
            except BaseException as exc:
                problems.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, daemon=True)] + [
                threading.Thread(target=read, daemon=True) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not problems
        snapshot = store.statistics()
        assert snapshot.triple_count == len(store) == len(fresh) + 5
        recount: dict = {}
        for triple in store.triples():
            recount[triple.predicate] = recount.get(triple.predicate, 0) + 1
        assert dict(snapshot.predicate_cardinalities) == recount


class TestPagedPersistence:
    def test_round_trip_through_disk_header(self, tmp_path):
        directory = str(tmp_path / "pg")
        built = PagedTripleStore.build(small_triples(), directory)
        expected = built.statistics()
        built.close()
        reopened = PagedTripleStore.open(directory)
        snapshot = reopened.statistics()
        assert snapshot.triple_count == expected.triple_count
        assert dict(snapshot.predicate_cardinalities) == dict(
            expected.predicate_cardinalities
        )
        reopened.close()

    def test_legacy_header_falls_back_to_scan(self, tmp_path):
        directory = str(tmp_path / "pg")
        PagedTripleStore.build(small_triples(), directory).close()
        meta_path = os.path.join(directory, "meta.bin")
        with open(meta_path, "rb") as fh:
            assert fh.read(4) == b"RPG2"
            page_size, size = struct.unpack("<II", fh.read(8))
            fh.read(12)  # distinct S/P/O
            (n_predicates,) = struct.unpack("<I", fh.read(4))
            fh.read(8 * n_predicates)
            tail = fh.read()
        # Rewrite in the pre-statistics layout: no magic, no stats block.
        with open(meta_path, "wb") as fh:
            fh.write(struct.pack("<II", page_size, size))
            fh.write(tail)
        legacy = PagedTripleStore.open(directory)
        snapshot = legacy.statistics()
        reference = compute_statistics(Graph(small_triples()))
        assert snapshot.triple_count == reference.triple_count
        assert dict(snapshot.predicate_cardinalities) == dict(
            reference.predicate_cardinalities
        )
        legacy.close()


class TestFederatedStatistics:
    def test_merge_sums_member_counts(self):
        left = Graph([Triple(EX.a, EX.p, EX.b)])
        right = Graph([Triple(EX.c, EX.q, EX.d), Triple(EX.c, EX.p, EX.d)])
        fed = FederatedStore([("l", left), ("r", right)])
        snapshot = fed.statistics()
        assert snapshot.triple_count == 3
        assert snapshot.predicate_count(EX.p) == 2
        assert snapshot.predicate_count(EX.q) == 1
        assert snapshot.distinct_predicates == 2

    def test_add_source_invalidates(self):
        fed = FederatedStore([("l", Graph([Triple(EX.a, EX.p, EX.b)]))])
        assert fed.statistics().triple_count == 1
        fed.add_source("r", Graph([Triple(EX.c, EX.q, EX.d)]))
        assert fed.statistics().triple_count == 2


class TestSnapshotValue:
    def test_frozen(self):
        snapshot = StatisticsSnapshot(1, 1, 1, 1)
        with pytest.raises(Exception):
            snapshot.triple_count = 2
