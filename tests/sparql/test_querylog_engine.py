"""Query-log emission from the engines: every executed query becomes one
structured workload record, cache hits included, abandoned streams included."""

import threading

import pytest

from repro.obs import OBS
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql import QueryEngine
from repro.sparql.cached import CachedQueryEngine
from repro.store import MemoryStore

EX = "http://example.org/"


@pytest.fixture(autouse=True)
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    OBS.querylog.enabled = True
    yield
    OBS.reset()
    OBS.configure(enabled=prior)


def build_store(n: int = 120) -> MemoryStore:
    store = MemoryStore()
    value = IRI(EX + "value")
    label = IRI(EX + "label")
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, value, Literal(float(index))))
        store.add(Triple(subject, label, Literal(f"item {index}")))
    return store


QUERY = (
    "SELECT ?s ?v WHERE { ?s <http://example.org/value> ?v . "
    "?s <http://example.org/label> ?l }"
)


class TestEngineEmission:
    def test_select_record_carries_counters_and_scans(self):
        engine = QueryEngine(build_store())
        result = engine.query(QUERY)
        record = OBS.querylog.records()[-1]
        assert record.form == "SELECT"
        assert record.digest == engine.plan_digest(QUERY)
        assert record.solutions == len(result)
        assert record.store_lookups == result.stats.store_lookups
        assert record.latency_ms > 0
        assert record.cache_hit is False and record.complete is True
        assert record.strategy.startswith(("iterator", "vectorized"))
        # two patterns -> two scan observations, exactly one leading
        assert len(record.scans) == 2
        assert sum(scan.leading for scan in record.scans) == 1
        leading = next(scan for scan in record.scans if scan.leading)
        assert leading.estimated is not None and leading.actual >= 0
        assert set(leading.mask) <= {"b", "v"} and len(leading.mask) == 3

    def test_batch_consumers_are_named_and_scans_still_observed(self):
        engine = QueryEngine(build_store())
        engine.query(
            "SELECT ?l (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
            "?s <http://example.org/value> ?v . ?s <http://example.org/label> ?l "
            "FILTER(?v >= 10) } GROUP BY ?l"
        )
        record = OBS.querylog.records()[-1]
        assert record.strategy == "vectorized:binary+agg"
        # the estimate-vs-actual feed still sees both IdScans below the
        # batch aggregate, and the counters keep their meaning
        assert len(record.scans) == 2
        assert sum(scan.leading for scan in record.scans) == 1
        assert record.scan_rows == sum(scan.actual for scan in record.scans) > 0
        assert record.solutions == 110

        engine.query(
            "SELECT ?s ?v WHERE { ?s <http://example.org/value> ?v } "
            "ORDER BY DESC(?v) LIMIT 5"
        )
        record = OBS.querylog.records()[-1]
        assert record.strategy == "vectorized:binary+topk"
        assert len(record.scans) == 1 and record.scans[0].actual == 120
        assert record.solutions == 5

    def test_result_exposes_plan_digest(self):
        engine = QueryEngine(build_store())
        result = engine.query(QUERY)
        assert result.plan_digest == engine.plan_digest(QUERY)

    def test_ask_and_describe_forms(self):
        engine = QueryEngine(build_store())
        engine.query("ASK { ?s ?p ?o }")
        assert OBS.querylog.records()[-1].form == "ASK"
        engine.query(f"DESCRIBE <{EX}item/1>")
        record = OBS.querylog.records()[-1]
        # DESCRIBE with constant resources has no operator tree
        assert record.form == "DESCRIBE" and record.strategy == "none"

    def test_disabled_log_emits_nothing(self):
        OBS.querylog.enabled = False
        engine = QueryEngine(build_store())
        result = engine.query(QUERY)
        assert OBS.querylog.records() == []
        # and the digest is not computed on the silent path
        assert result.plan_digest is None

    def test_trace_id_joins_the_active_trace(self):
        OBS.configure(enabled=True, sample_rate=1.0)
        engine = QueryEngine(build_store())
        engine.query(QUERY)
        record = OBS.querylog.records()[-1]
        span = OBS.tracer.recorder.spans()[-1]
        assert record.trace_id == span.trace_id


def test_concurrent_queries_log_their_own_scans():
    """Two threads share one engine: each record carries the scans of the
    plan that query ran, not of whichever plan the engine built last."""
    store = MemoryStore()
    p0, p1, p2 = (IRI(f"{EX}p{index}") for index in range(3))
    for index in range(3):
        subject = IRI(f"{EX}item/{index}")
        for predicate in (p0, p1, p2):
            store.add(Triple(subject, predicate, Literal(index)))
    entered, release = threading.Event(), threading.Event()

    class ParkingStore:
        """Row-only double whose scan of ``p0`` parks until released."""

        def triples(self, pattern=(None, None, None)):
            if pattern[1] == p0:
                entered.set()
                assert release.wait(timeout=10)
            return store.triples(pattern)

        def count(self, pattern=(None, None, None)):
            return store.count(pattern)

        def __len__(self):
            return len(store)

        def statistics(self):
            return store.statistics()

    engine = QueryEngine(ParkingStore())
    parked = f"SELECT ?s WHERE {{ ?s {p0.n3()} ?o }}"
    other = f"SELECT ?s WHERE {{ ?s {p1.n3()} ?a . ?s {p2.n3()} ?b }}"
    thread = threading.Thread(target=engine.query, args=(parked,), daemon=True)
    thread.start()
    try:
        assert entered.wait(timeout=10)
        engine.query(other)
    finally:
        release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()

    scans = {
        record.digest: sorted(scan.predicate for scan in record.scans)
        for record in OBS.querylog.records()
    }
    assert scans == {
        engine.plan_digest(parked): [p0.n3()],
        engine.plan_digest(other): [p1.n3(), p2.n3()],
    }


class TestStreamingEmission:
    def test_exhausted_stream_is_complete(self):
        engine = QueryEngine(build_store())
        stream = engine.stream_select(QUERY)
        rows = list(stream.rows)
        record = OBS.querylog.records()[-1]
        assert record.complete is True
        assert record.solutions == len(rows)
        assert record.form == "SELECT"

    def test_abandoned_stream_logs_partial_record(self):
        engine = QueryEngine(build_store())
        stream = engine.stream_select(QUERY)
        iterator = iter(stream.rows)
        next(iterator)
        depth_before = len(OBS.querylog)
        stream.rows.close()
        records = OBS.querylog.records()
        assert len(records) == depth_before + 1
        record = records[-1]
        assert record.complete is False
        assert record.solutions >= 1  # the consumed prefix
        # the abandoned stream still contributed nothing to engine totals
        assert engine.stats.solutions == 0

    def test_never_started_stream_logs_nothing(self):
        engine = QueryEngine(build_store())
        stream = engine.stream_select(QUERY)
        stream.rows.close()  # body never entered -> no record
        assert OBS.querylog.records() == []


class TestCachedEngineEmission:
    def test_hit_produces_cached_record_with_zeroed_scans(self):
        engine = CachedQueryEngine(build_store())
        first = engine.query(QUERY)
        second = engine.query(QUERY)
        records = OBS.querylog.records()
        assert len(records) == 2
        miss, hit = records
        assert miss.cache_hit is False and miss.store_lookups > 0
        assert hit.cache_hit is True
        assert hit.strategy == "cached"
        assert hit.store_lookups == 0 and hit.scan_rows == 0
        assert hit.scans == ()
        assert hit.solutions == len(second)
        assert hit.digest == miss.digest
        # the digest flows through without recomputation on either result
        assert first.plan_digest == second.plan_digest == miss.digest

    def test_cached_graph_form_label(self):
        engine = CachedQueryEngine(build_store())
        query = f"DESCRIBE <{EX}item/1>"
        engine.query(query)
        engine.query(query)
        hit = OBS.querylog.records()[-1]
        assert hit.cache_hit and hit.form == "GRAPH"


class TestEvalStatsConcurrency:
    def test_reset_in_place_under_concurrent_queries(self):
        """EvalStats.reset() keeps identity (stats object and its
        operator_rows dict) while queries merge into it from other
        threads, and never raises."""
        engine = QueryEngine(build_store(200))
        stats = engine.stats
        rows_dict = stats.operator_rows
        errors: list[Exception] = []
        stop = threading.Event()

        def run_queries():
            try:
                while not stop.is_set():
                    engine.query(QUERY)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        workers = [threading.Thread(target=run_queries) for _ in range(4)]
        for worker in workers:
            worker.start()
        for _ in range(50):
            stats.reset()
        stop.set()
        for worker in workers:
            worker.join(timeout=10)
        assert not errors
        # the in-place contract: same objects, still valid
        assert engine.stats is stats
        assert stats.operator_rows is rows_dict
        assert stats.store_lookups >= 0
        stats.reset()
        assert stats.store_lookups == 0
        assert stats.operator_rows == {} and stats.operator_rows is rows_dict
