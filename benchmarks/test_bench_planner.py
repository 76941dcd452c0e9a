"""Experiments C13 + C14: what counting costs the planner and buys the
plans, and what native id runs buy.

C13: the plan pipeline costs BGP join orders with a
:class:`CardinalityEstimator`. A store on sorted runs is asked for each
pattern's exact count (two binary searches); a source that cannot count
locally is planned from its :class:`StatisticsSnapshot` (triple count,
distinct S/P/O, per-predicate histogram, uniformity assumptions). This
experiment runs both planners over the same store: what exact counts cost
per plan (at most 2x the snapshot) and what they buy in plan quality (no
more intermediate bindings than the snapshot's plans).

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
    """``store`` stripped to ``triples`` / ``count`` / ``__len__``: no id
    runs, and planned by ``count()`` — the exact counts, so the plans
    ``store`` itself gets, read through the encoding adaptor."""

    def __init__(self, store):
        self._store = store

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)):
        return self._store.count(pattern)

    def __len__(self):
        return len(self._store)


class RowsOnly(BareStore):
    """``BareStore`` plus the statistics snapshot, which is then what it is
    planned from (a federation member, a remote endpoint)."""

    def statistics(self):
        return self._store.statistics()


PLAN_REPEATS = 100
# The two planners are within 2x of each other (a count is two binary
# searches); the fastest of a few rounds keeps one scheduler hiccup from
# deciding the comparison.
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


def _multiset(result):
    from collections import Counter

    return Counter(
        tuple(sorted((str(v), t.n3()) for v, t in row.items()))
        for row in result.rows
    )


def _time_planner(estimator, pattern_lists):
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        for _ in range(PLAN_REPEATS):
            for patterns in pattern_lists:
                estimator.order(patterns)
        best = min(best, time.perf_counter() - start)
    return best


def test_c13_exact_count_vs_snapshot_planning(benchmark):
    store = _store()
    pattern_lists = [_bgp_patterns(q) for q in STAR_QUERIES]

    exact_estimator = CardinalityEstimator.for_store(store)
    assert exact_estimator.snapshot is None  # the store counts
    snapshot_estimator = CardinalityEstimator(snapshot=store.statistics())

    # Plan *quality*: run the workload through an engine planning from
    # exact counts and one planning from the snapshot. Answers must match
    # and the counted plans must produce no more intermediate bindings.
    # Both engines behind the encoding adaptor, so the accounting compares
    # plans only.
    exact_engine = QueryEngine(BareStore(store))
    snapshot_engine = QueryEngine(RowsOnly(store))
    for text in STAR_QUERIES:
        assert _multiset(exact_engine.query(text)) == _multiset(
            snapshot_engine.query(text)
        )
    quality_ratio = exact_engine.stats.intermediate_bindings / max(
        snapshot_engine.stats.intermediate_bindings, 1
    )
    assert quality_ratio <= 1.0

    exact_seconds = _time_planner(exact_estimator, pattern_lists)
    snapshot_seconds = _time_planner(snapshot_estimator, pattern_lists)
    plans = PLAN_REPEATS * len(pattern_lists)
    cost_ratio = exact_seconds / max(snapshot_seconds, 1e-9)

    print("\n\nC13: planning, exact counts vs statistics snapshot "
          f"({len(store)} triples, {plans} plans)")
    print(f"{'planner':>12} | {'total':>9} | {'per plan':>10}")
    print(f"{'exact count':>12} | {exact_seconds:>8.3f}s | {exact_seconds / plans * 1e6:>8.1f}us")
    print(f"{'snapshot':>12} | {snapshot_seconds:>8.3f}s | {snapshot_seconds / plans * 1e6:>8.1f}us")
    print(f"  planning cost ratio (exact/snapshot): {cost_ratio:.2f}")
    print(f"  intermediate-binding ratio (exact/snapshot plans): {quality_ratio:.2f}")
    assert cost_ratio <= 2.0

    # End-to-end: EXPLAIN (plan only, no execution) through the engine.
    engine = QueryEngine(store)
    start = time.perf_counter()
    for _ in range(PLAN_REPEATS):
        engine.explain(STAR_QUERIES[0], analyze=False)
    explain_seconds = time.perf_counter() - start

    RESULTS_PATH.write_text(json.dumps({
        "experiment": "C13+C14 exact-count planning and native runs vs encoding adaptor",
        "triples": len(store),
        "plans_per_planner": plans,
        "exact_count_planning_seconds": round(exact_seconds, 6),
        "snapshot_planning_seconds": round(snapshot_seconds, 6),
        "exact_vs_snapshot_planning_ratio": round(cost_ratio, 2),
        "explain_no_analyze_seconds_per_query": round(
            explain_seconds / PLAN_REPEATS, 6
        ),
        "exact_vs_snapshot_intermediate_binding_ratio": round(quality_ratio, 3),
    }, indent=2) + "\n")
    print(f"  results written to {RESULTS_PATH.name}")

    benchmark(lambda: exact_estimator.order(pattern_lists[0]))


EXEC_REPEATS = 5


def test_c14_native_runs_vs_encoding_adaptor(benchmark):
    """Source ablation on the star workload (merges into C13's file)."""
    store = _store()
    adaptor_engine = QueryEngine(BareStore(store))
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
