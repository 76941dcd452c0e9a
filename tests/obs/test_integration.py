"""Telemetry wired through the query/store/cache/hierarchy stack."""

import pytest

from repro.approx.progressive import ProgressiveAggregator
from repro.cache.prefetch import TilePrefetcher
from repro.hierarchy.hetree import HETreeC
from repro.hierarchy.incremental import IncrementalHETree
from repro.obs import OBS, trace_query
from repro.rdf import Graph, parse_turtle
from repro.sparql import CachedQueryEngine, QueryEngine
from repro.store import MemoryStore
from repro.store.cracking import CrackedColumn

DATA = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b , ex:c .
ex:b ex:knows ex:d ; ex:age 30 .
ex:c ex:knows ex:d ; ex:age 28 .
ex:d ex:knows ex:e .
"""

QUERY = (
    "PREFIX ex: <http://example.org/> "
    "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:knows ?z }"
)


@pytest.fixture
def store():
    return Graph(parse_turtle(DATA))


class TestExplainTiming:
    def test_explain_analyze_reports_per_operator_wall_time(self, store):
        # Timing is the point of EXPLAIN ANALYZE: it works with global
        # tracing off (the default in this suite).
        assert not OBS.enabled
        # A store with its own id runs and one behind the encoding adaptor.
        for served in (MemoryStore(store.triples()), store):
            plan = QueryEngine(served).explain(QUERY, analyze=True)
            for node in plan.walk():
                assert node.wall_ms is not None
                assert node.wall_ms >= 0.0
            # Inclusive timing: the root covers its children.
            assert plan.wall_ms >= max(c.wall_ms for c in plan.children)
            assert "time=" in plan.render()
            # A BGP's scans are stages of one pipeline: each is charged its
            # own time, so together they fit inside the BGP's.
            (bgp,) = plan.find("VectorizedBGP")
            scans = bgp.find("IdScan")
            assert len(scans) == 2 and all(s.wall_ms > 0.0 for s in scans)
            assert sum(s.wall_ms for s in scans) <= bgp.wall_ms

    def test_explain_without_analyze_has_no_timing(self, store):
        plan = QueryEngine(store).explain(QUERY, analyze=False)
        assert all(node.wall_ms is None for node in plan.walk())
        assert "time=" not in plan.render()

    def test_untraced_query_does_not_time_operators(self, store):
        result = QueryEngine(store).query(QUERY)
        assert all(node.wall_ms is None for node in result.plan.walk())


class TestQuerySpans:
    def test_operator_spans_nest_under_query_span(self, store):
        OBS.configure(enabled=True)
        engine = QueryEngine(store)
        result = engine.query(QUERY)
        assert len(result.rows) > 0
        (root,) = OBS.tracer.recorder.spans()
        assert root.name == "sparql.query"
        assert root.attributes["form"] == "SelectQuery"
        operator_names = {s.name for s in root.walk() if s.name.startswith("op.")}
        assert {"op.VectorizedBGP", "op.IdScan"} <= operator_names
        for span in root.walk():
            if span.name.startswith("op."):
                assert span.finished

    def test_trace_query_wraps_engine_calls(self, store):
        engine = QueryEngine(store)
        with trace_query("exploration step") as span:
            engine.query(QUERY)
        assert not OBS.enabled  # restored
        assert [c.name for c in span.children] == ["sparql.query"]


class TestCachedPlanTagging:
    def test_second_run_is_tagged_cached(self, store):
        engine = CachedQueryEngine(store)
        first = engine.query(QUERY)
        second = engine.query(QUERY)
        assert not first.plan.cached
        assert second.plan.cached
        assert "[cached plan: actuals from prior run]" in second.plan.render()
        assert "[cached plan" not in first.plan.render()
        # the wrapper shares the cached rows; only the plan root differs
        assert second.rows is first.rows
        assert second.plan.children == first.plan.children

    def test_cache_counters_labelled_by_cache_name(self, store):
        OBS.configure(enabled=True)
        engine = CachedQueryEngine(store)
        engine.query(QUERY)
        engine.query(QUERY)
        metrics = OBS.metrics
        assert metrics.counter("cache.misses", cache="sparql.result").value == 1
        assert metrics.counter("cache.hits", cache="sparql.result").value == 1
        engine.invalidate()
        assert metrics.counter("cache.invalidations", cache="sparql.result").value == 1


class TestPrefetchErrorAccounting:
    def test_speculative_failure_counted_not_raised(self):
        def loader(tile):
            if tile[0] > 1:  # tiles beyond the demand set blow up
                raise IOError(f"tile {tile} unavailable")
            return f"data{tile}"

        prefetcher = TilePrefetcher(loader, momentum_depth=1)
        # panning right: momentum predicts tiles with x > 1, which fail
        prefetcher.request([(0, 0)])
        results = prefetcher.request([(1, 0)])  # must not raise
        assert results == ["data(1, 0)"]
        assert prefetcher.prefetch_errors > 0
        counter = OBS.metrics.counter(
            "obs.errors", site="cache.prefetch", exception="OSError"
        )
        assert counter.value == prefetcher.prefetch_errors

    def test_demand_failures_still_raise(self):
        def loader(tile):
            raise IOError("down")

        prefetcher = TilePrefetcher(loader)
        with pytest.raises(IOError):
            prefetcher.request([(0, 0)])


class TestStoreInstrumentation:
    def test_crack_operations_counted_and_traced(self):
        OBS.configure(enabled=True)
        column = CrackedColumn(list(range(100, 0, -1)))
        column.range_query(20.0, 40.0)
        assert OBS.metrics.counter("store.crack.operations").value > 0
        spans = OBS.tracer.recorder.spans()
        assert [s.name for s in spans] == ["store.crack.range_query"]
        assert spans[0].attributes["partitioned"] > 0

    def test_cracking_untouched_when_disabled(self):
        column = CrackedColumn(list(range(50)))
        result = column.range_query(10.0, 20.0)
        assert len(result) == 10
        assert len(OBS.metrics) == 0
        assert OBS.tracer.recorder.spans() == []


class TestProgressStreams:
    def test_hetree_build_span_recorded(self):
        OBS.configure(enabled=True)
        HETreeC([float(i) for i in range(64)], leaf_size=8)
        (span,) = OBS.tracer.recorder.spans()
        assert span.name == "hierarchy.hetree.build"
        assert span.attributes["items"] == 64
        summary = OBS.metrics.histogram(
            "hierarchy.hetree.build_ms", flavour="content"
        ).summary()
        assert summary["count"] == 1.0

    def test_incremental_expand_emits_progress(self):
        events = []
        OBS.progress.subscribe(events.append)
        tree = IncrementalHETree([float(i) for i in range(256)], leaf_size=4)
        tree.drill_path(100.0)
        assert events, "drill-down emitted no progress events"
        assert all(e.operation == "hierarchy.incremental.materialize" for e in events)
        completed = [e.completed for e in events]
        assert completed == sorted(completed)
        assert events[-1].total == tree.full_tree_node_estimate

    def test_incremental_expand_silent_without_subscribers(self):
        tree = IncrementalHETree([float(i) for i in range(64)], leaf_size=4)
        tree.drill_path(10.0)
        assert OBS.budgets.report().for_class("progressive").count == 0

    def test_progressive_aggregation_emits_estimates(self):
        events = []
        OBS.progress.subscribe(events.append)
        aggregator = ProgressiveAggregator([1.0] * 100 + [3.0] * 100, seed=3)
        list(aggregator.run(chunk_size=50))
        assert [e.completed for e in events] == [50, 100, 150, 200]
        assert events[-1].fraction == 1.0
        assert events[-1].attributes["mean"] == pytest.approx(2.0)
        assert events[-1].attributes["ci_halfwidth"] == 0.0
