"""The estimate-drift feedback loop: CorrectionTable semantics, and the
end-to-end path log -> analyzer -> corrections -> better join order.

The skewed-workload scenario reproduces the acceptance criterion: the
statistics snapshot's uniformity assumption misestimates a hot-object
predicate by three orders of magnitude, the query log records the drift,
``build_corrections`` learns a factor, and an engine planning with it
flips the EXPLAIN join order and measurably improves latency.
"""

import statistics
import time

import pytest

from repro.obs import OBS
from repro.obs.workload import build_corrections
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql import QueryEngine
from repro.sparql.optimizer import CardinalityEstimator, CorrectionTable
from repro.store import MemoryStore

EX = "http://example.org/"
HOT_PRED = IRI(EX + "inCluster")
RARE_PRED = IRI(EX + "taggedWith")
HOT = IRI(EX + "cluster/main")
RARE = IRI(EX + "tag/rare")

SKEWED_QUERY = (
    f"SELECT ?e WHERE {{ ?e <{HOT_PRED}> <{HOT}> . "
    f"?e <{RARE_PRED}> <{RARE}> }}"
)


def skewed_store(n: int = 2_000, rare: int = 10) -> MemoryStore:
    """Skew the snapshot blind spot — skew *inside* one predicate, which
    its per-predicate distinct-object count cannot see: through
    ``inCluster`` every entity points at a cluster of its own and at ONE
    hot object (actual matches of the hot object = n, uniformity estimate
    2n / (n + 1) ~ 2), while ``taggedWith`` spreads ``5 * rare`` entities
    evenly over five tags (estimate = actual = ``rare``)."""
    store = MemoryStore()
    for index in range(n):
        entity = IRI(f"{EX}entity/{index}")
        store.add(Triple(entity, HOT_PRED, HOT))
        store.add(Triple(entity, HOT_PRED, IRI(f"{EX}cluster/c{index}")))
        if index < 5 * rare:
            tag = RARE if index % 5 == 0 else IRI(f"{EX}tag/t{index % 5}")
            store.add(Triple(entity, RARE_PRED, tag))
    return store


def scan_order(engine: QueryEngine, query: str) -> list[str]:
    """Pattern details of the plan's scans, in execution order."""
    plan = engine.explain(query, analyze=False)
    return [
        node.detail
        for node in plan.walk()
        if node.operator == "IdScan"
    ]


class TestCorrectionTable:
    def test_factor_lookup_and_wildcard(self):
        table = CorrectionTable()
        table.set("<p>", "vbb", 100.0)
        table.set("*", "bvv", 3.0)
        assert table.factor("<p>", "vbb") == 100.0
        assert table.factor("<q>", "vbb") == 1.0  # no wildcard for vbb
        assert table.factor("<q>", "bvv") == 3.0  # wildcard applies
        assert table.factor(None, "bvv") == 3.0
        assert table.factor("<p>", "bbv") == 1.0

    def test_clamping(self):
        table = CorrectionTable()
        table.set("<p>", "vbb", 1e9)
        table.set("<q>", "vbb", 1e-9)
        assert table.factor("<p>", "vbb") == CorrectionTable.MAX_FACTOR
        assert table.factor("<q>", "vbb") == CorrectionTable.MIN_FACTOR

    def test_json_roundtrip(self):
        table = CorrectionTable.from_factors({"<p>|vbb": 40.0, "*|bvv": 0.5})
        assert table.factor("<p>", "vbb") == 40.0
        assert table.factor(None, "bvv") == 0.5
        assert CorrectionTable.from_factors(table.to_json()).to_json() == (
            table.to_json()
        )

    def test_estimator_applies_correction_on_uniformity_branch_only(self):
        store = skewed_store(200, rare=5)
        table = CorrectionTable.from_factors(
            {f"{HOT_PRED.n3()}|vbb": 100.0}
        )
        plain = CardinalityEstimator.for_store(store)
        corrected = CardinalityEstimator.for_store(store, corrections=table)
        from repro.sparql.parser import parse_query

        parsed = parse_query(SKEWED_QUERY)
        hot_pattern = parsed.where.elements[0]
        assert corrected.pattern_cardinality(hot_pattern) == pytest.approx(
            plain.pattern_cardinality(hot_pattern) * 100.0
        )
        # exact branches stay exact: a predicate-only pattern is answered
        # from the histogram and must not be rescaled
        only_pred = parse_query(
            f"SELECT ?s ?o WHERE {{ ?s <{HOT_PRED}> ?o }}"
        ).where.elements[0]
        wild = CorrectionTable.from_factors({f"{HOT_PRED.n3()}|vbv": 50.0})
        with_wild = CardinalityEstimator.for_store(store, corrections=wild)
        assert with_wild.pattern_cardinality(only_pred) == (
            plain.pattern_cardinality(only_pred)
        )


class TestFeedbackLoop:
    def test_drift_flips_join_order_and_improves_latency(self):
        prior = OBS.querylog.enabled
        OBS.querylog.reset()
        OBS.querylog.enabled = True
        try:
            store = skewed_store()
            naive = QueryEngine(store)

            # The snapshot's uniformity assumption puts the hot pattern
            # first — the construction this test depends on.
            order = scan_order(naive, SKEWED_QUERY)
            assert HOT.n3() in order[0], order

            # Run the workload; the log captures leading-scan drift.
            for _ in range(4):
                result = naive.query(SKEWED_QUERY)
            assert len(result) == 10

            factors = build_corrections(OBS.querylog.records())
            key = f"{HOT_PRED.n3()}|vbb"
            assert key in factors and factors[key] > 100.0

            corrected = QueryEngine(
                store, corrections=CorrectionTable.from_factors(factors)
            )
            flipped = scan_order(corrected, SKEWED_QUERY)
            assert RARE.n3() in flipped[0], flipped
            assert flipped != order

            def median_ms(engine: QueryEngine) -> float:
                samples = []
                for _ in range(5):
                    start = time.perf_counter()
                    engine.query(SKEWED_QUERY)
                    samples.append(time.perf_counter() - start)
                return statistics.median(samples) * 1e3

            naive_ms = median_ms(naive)
            corrected_ms = median_ms(corrected)
            assert corrected_ms < naive_ms, (
                f"corrected {corrected_ms:.2f}ms !< naive {naive_ms:.2f}ms"
            )

            # resource accounting agrees with the clock
            naive_work = naive.query(SKEWED_QUERY).stats
            corrected_work = corrected.query(SKEWED_QUERY).stats
            naive_cost = naive_work.store_lookups + naive_work.scan_rows
            corrected_cost = (
                corrected_work.store_lookups + corrected_work.scan_rows
            )
            assert corrected_cost < naive_cost / 10
        finally:
            OBS.querylog.reset()
            OBS.querylog.enabled = prior
