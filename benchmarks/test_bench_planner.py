"""Experiments C13 + C14: planning cost and what native id runs buy.

C13: the plan pipeline costs BGP join orders with a
:class:`CardinalityEstimator`. Stores that publish a
:class:`StatisticsSnapshot` answer every estimate from a cached summary
(triple count, distinct S/P/O, per-predicate histogram); stores that don't
force the planner back to live ``store.count`` probes per pattern. This
experiment measures the planning-time gap and checks that both planners
pick the same join order.

C14: the same star workload executed end to end by the one BGP executor
over two sources — the store's own sorted runs, and the same store behind
a double that only yields triples, which the engine reads through the
encoding adaptor (``as_id_scan_source``: scratch dictionary, ``triples()``
per probe key). Same plans, same operator; the gap is what scans as array
slices and probes as binary searches are worth, and the native side must
hold a >=5x speedup.

Both experiments persist to ``BENCH_planner.json`` at the repo root (C13
writes the document, C14 merges its keys in — keep that test order).
"""

import json
import time
from pathlib import Path

from repro.sparql import CardinalityEstimator, QueryEngine, parse_query
from repro.store import MemoryStore
from repro.workload import typed_entities

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_planner.json"

PREFIX = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

STAR_QUERIES = [
    PREFIX + """SELECT ?label WHERE {
        ?entity rdfs:label ?label .
        ?entity ex:numeric0 ?value .
        ?entity ex:category0 "value0_1" .
        ?entity a ex:Class3 .
    }""",
    PREFIX + """SELECT ?e ?v WHERE {
        ?e ex:numeric1 ?v .
        ?e ex:category1 "value1_0" .
        ?e a ex:Class0 .
    }""",
    PREFIX + """SELECT ?a ?label WHERE {
        ?a a ex:Class4 .
        ?a ex:category1 "value1_2" .
        ?a ex:category0 "value0_0" .
        ?a rdfs:label ?label .
    }""",
]


class BareStore:
    """``store`` stripped to ``triples`` / ``count`` / ``__len__``: no
    statistics protocol (live-count planning) and no id runs."""

    def __init__(self, store):
        self._store = store

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)):
        return self._store.count(pattern)

    def __len__(self):
        return len(self._store)


class RowsOnly(BareStore):
    """``BareStore`` plus the statistics snapshot: the plans ``store``
    itself gets, read through the encoding adaptor."""

    def statistics(self):
        return self._store.statistics()


PLAN_REPEATS = 100
# The two planners are within 2x of each other now that a live
# ``MemoryStore.count`` is two binary searches (it was a walk over the
# nested indexes, ~24x); the fastest of a few rounds keeps one scheduler
# hiccup from deciding the comparison.
TIMING_ROUNDS = 5


def _store() -> MemoryStore:
    return MemoryStore(
        typed_entities(5_000, n_classes=5, numeric_properties=2,
                       categorical_properties=2, seed=31)
    )


def _bgp_patterns(text):
    from repro.sparql.nodes import TriplePatternNode

    parsed = parse_query(text)
    return [
        element
        for element in parsed.where.elements
        if isinstance(element, TriplePatternNode)
    ]


def _time_planner(estimator, pattern_lists):
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        for _ in range(PLAN_REPEATS):
            for patterns in pattern_lists:
                estimator.order(patterns)
        best = min(best, time.perf_counter() - start)
    return best


def test_c13_stats_vs_live_count_planning(benchmark):
    store = _store()
    pattern_lists = [_bgp_patterns(q) for q in STAR_QUERIES]

    snapshot_estimator = CardinalityEstimator(snapshot=store.statistics())
    live_estimator = CardinalityEstimator(store=store)

    # Plan *quality*: run the workload through an engine planning from the
    # snapshot and one forced onto live counts (store stripped of the
    # statistics protocol). Answers must match and the snapshot plans must
    # not blow up intermediate results (within 2x of exact-count plans).
    # Both engines behind the encoding adaptor (BareStore has no id runs of
    # its own), so the intermediate-binding accounting compares plans only.
    stats_engine = QueryEngine(RowsOnly(store))
    live_engine = QueryEngine(BareStore(store))
    for text in STAR_QUERIES:
        stats_rows = {tuple(sorted((str(k), v.n3()) for k, v in row.items()))
                      for row in stats_engine.query(text).rows}
        live_rows = {tuple(sorted((str(k), v.n3()) for k, v in row.items()))
                     for row in live_engine.query(text).rows}
        assert stats_rows == live_rows
    quality_ratio = stats_engine.stats.intermediate_bindings / max(
        live_engine.stats.intermediate_bindings, 1
    )
    assert quality_ratio < 2.0

    stats_seconds = _time_planner(snapshot_estimator, pattern_lists)
    live_seconds = _time_planner(live_estimator, pattern_lists)
    plans = PLAN_REPEATS * len(pattern_lists)

    # Cache effectiveness: every estimate of the snapshot planner should be
    # answered from the cached statistics, none from the store.
    total_estimates = (
        snapshot_estimator.snapshot_estimates + snapshot_estimator.live_estimates
    ) // TIMING_ROUNDS
    assert snapshot_estimator.snapshot_hit_rate == 1.0
    assert live_estimator.snapshot_hit_rate == 0.0

    print("\n\nC13: planning cost, statistics snapshot vs live counts "
          f"({len(store)} triples, {plans} plans)")
    print(f"{'planner':>12} | {'total':>9} | {'per plan':>10}")
    print(f"{'snapshot':>12} | {stats_seconds:>8.3f}s | {stats_seconds / plans * 1e6:>8.1f}us")
    print(f"{'live count':>12} | {live_seconds:>8.3f}s | {live_seconds / plans * 1e6:>8.1f}us")
    speedup = live_seconds / max(stats_seconds, 1e-9)
    print(f"  planning speedup from statistics: {speedup:.1f}x")
    print(f"  intermediate-binding ratio (snapshot/live plans): {quality_ratio:.2f}")
    print(f"  snapshot hit rate: {snapshot_estimator.snapshot_hit_rate:.0%} "
          f"over {total_estimates} estimates")
    assert stats_seconds < live_seconds

    # End-to-end: EXPLAIN (plan only, no execution) through the engine.
    engine = QueryEngine(store)
    start = time.perf_counter()
    for _ in range(PLAN_REPEATS):
        engine.explain(STAR_QUERIES[0], analyze=False)
    explain_seconds = time.perf_counter() - start

    RESULTS_PATH.write_text(json.dumps({
        "experiment": "C13+C14 planning cost and native runs vs encoding adaptor",
        "triples": len(store),
        "plans_per_planner": plans,
        "snapshot_planning_seconds": round(stats_seconds, 6),
        "live_count_planning_seconds": round(live_seconds, 6),
        "planning_speedup": round(speedup, 2),
        "explain_no_analyze_seconds_per_query": round(
            explain_seconds / PLAN_REPEATS, 6
        ),
        "intermediate_binding_ratio_snapshot_vs_live": round(quality_ratio, 3),
        "estimates_per_planner": total_estimates,
        "snapshot_estimator_hit_rate": round(snapshot_estimator.snapshot_hit_rate, 3),
        "live_estimator_hit_rate": round(live_estimator.snapshot_hit_rate, 3),
    }, indent=2) + "\n")
    print(f"  results written to {RESULTS_PATH.name}")

    benchmark(lambda: snapshot_estimator.order(pattern_lists[0]))


EXEC_REPEATS = 5


def _multiset(result):
    from collections import Counter

    return Counter(
        tuple(sorted((str(v), t.n3()) for v, t in row.items()))
        for row in result.rows
    )


def test_c14_native_runs_vs_encoding_adaptor(benchmark):
    """Source ablation on the star workload (merges into C13's file)."""
    store = _store()
    adaptor_engine = QueryEngine(RowsOnly(store))
    vectorized_engine = QueryEngine(store)

    # Parity first: an ablation between sources that disagree is meaningless.
    for text in STAR_QUERIES:
        adaptor_rows = _multiset(adaptor_engine.query(text))
        vectorized_rows = _multiset(vectorized_engine.query(text))
        assert adaptor_rows == vectorized_rows
        assert sum(adaptor_rows.values()) > 0
    # One executor on both sides: the same id batches, scan for scan.
    assert vectorized_engine.stats.scan_batches > 0
    assert adaptor_engine.stats.scan_rows == vectorized_engine.stats.scan_rows

    def workload(engine):
        for text in STAR_QUERIES:
            engine.query(text)

    def best_of(engine):
        workload(engine)  # warm parse/plan caches and store index paths
        best = float("inf")
        for _ in range(EXEC_REPEATS):
            start = time.perf_counter()
            workload(engine)
            best = min(best, time.perf_counter() - start)
        return best

    adaptor_seconds = best_of(adaptor_engine)
    vectorized_seconds = best_of(vectorized_engine)
    speedup = adaptor_seconds / max(vectorized_seconds, 1e-9)

    print(f"\n\nC14: star workload, encoding adaptor vs native sorted runs "
          f"({len(store)} triples, {len(STAR_QUERIES)} queries)")
    print(f"{'source':>12} | {'workload':>10}")
    print(f"{'adaptor':>12} | {adaptor_seconds * 1e3:>8.2f}ms")
    print(f"{'native runs':>12} | {vectorized_seconds * 1e3:>8.2f}ms")
    print(f"  native speedup: {speedup:.1f}x")

    # The headline acceptance bar for answering from the store's own runs.
    assert speedup >= 5.0

    results = json.loads(RESULTS_PATH.read_text())
    results.update({
        "adaptor_exec_seconds": round(adaptor_seconds, 6),
        "vectorized_exec_seconds": round(vectorized_seconds, 6),
        "vectorized_speedup": round(speedup, 2),
    })
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"  results merged into {RESULTS_PATH.name}")

    benchmark(lambda: workload(vectorized_engine))
