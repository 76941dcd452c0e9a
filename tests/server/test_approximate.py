"""Bounded-work approximate aggregates: eligibility, bounds, exactness."""

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.server.approximate import (
    approximate_select,
    eligible_aggregate,
)
from repro.sparql.eval import QueryEngine
from repro.sparql.parser import parse_query
from repro.store.memory import MemoryStore
from tests.helpers import rows_only

EX = "http://example.org/"
VALUE = IRI(EX + "value")
LABEL = IRI(EX + "label")


def numeric_store(n: int = 500) -> MemoryStore:
    # Distinct, order-scrambled values; the draw is over positions and does
    # not care (tests/server/test_sample_bounds.py orders data against it).
    store = MemoryStore()
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, VALUE, Literal(float((index * 7919) % 997))))
        store.add(Triple(subject, LABEL, Literal(f"item {index}")))
    return store


class TestEligibility:
    @pytest.mark.parametrize("text", [
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        "SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }",
        "SELECT (SUM(?v) AS ?total) WHERE { ?s <http://example.org/value> ?v }",
        "SELECT (AVG(?v) AS ?mean) (COUNT(*) AS ?n) "
        "WHERE { ?s <http://example.org/value> ?v }",
    ])
    def test_eligible(self, text):
        assert eligible_aggregate(parse_query(text))

    @pytest.mark.parametrize("text", [
        "SELECT ?s WHERE { ?s ?p ?o }",  # not an aggregate
        "SELECT (MIN(?v) AS ?m) WHERE { ?s ?p ?v }",  # extremes need all rows
        "SELECT (MAX(?v) AS ?m) WHERE { ?s ?p ?v }",
        "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }",
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } LIMIT 1",
        "ASK { ?s ?p ?o }",
    ])
    def test_ineligible(self, text):
        assert not eligible_aggregate(parse_query(text))

    def test_approximate_select_rejects_ineligible(self):
        engine = QueryEngine(numeric_store(10))
        with pytest.raises(ValueError):
            approximate_select(engine, "SELECT ?s WHERE { ?s ?p ?o }")


class TestExactWhenSmall:
    def test_exhausted_stream_answers_exactly(self):
        store = numeric_store(20)  # 40 triples, far below the row budget
        engine = QueryEngine(store)
        answer = approximate_select(
            engine, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            max_rows=1000,
        )
        assert not answer.approximate
        assert answer.method == "exact"
        assert answer.bounds == {"n": 0.0}
        (row,) = answer.result.rows
        (value,) = row.values()
        assert value.value == 40

    def test_metadata_shape(self):
        engine = QueryEngine(numeric_store(10))
        answer = approximate_select(
            engine, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
        )
        metadata = answer.metadata()
        assert set(metadata) == {
            "approximate", "method", "rows_consumed", "estimated_total",
            "confidence", "bounds",
        }


class TestApproximation:
    def test_bounded_work_count(self):
        store = numeric_store(500)  # 1000 triples
        engine = QueryEngine(store)
        answer = approximate_select(
            engine, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            max_rows=100,
        )
        assert answer.approximate
        assert answer.method == "sketch"
        # The frame: 100 of the scan's 1000 positions were drawn.
        assert answer.rows_consumed == 100
        assert answer.estimated_total == 1000
        (row,) = answer.result.rows
        (value,) = row.values()
        # Every drawn row is a solution, so scaling by N / m gives N: the
        # span's length, read off the store, not a planner estimate.
        assert value.value == 1000
        assert "sample=100/1000" in answer.result.plan.render()

    def test_avg_interval_covers_truth(self):
        store = numeric_store(500)
        engine = QueryEngine(store)
        query = (
            "SELECT (AVG(?v) AS ?mean) "
            "WHERE { ?s <http://example.org/value> ?v }"
        )
        answer = approximate_select(engine, query, max_rows=150)
        assert answer.approximate
        exact = engine.query(query)
        truth = next(iter(exact.rows[0].values())).value
        (row,) = answer.result.rows
        estimate = next(iter(row.values())).value
        halfwidth = answer.bounds["mean"]
        assert halfwidth > 0
        # 150 of 500 positions, drawn uniformly: a 5x-widened interval must
        # cover the exact mean.
        assert abs(estimate - truth) <= 5 * halfwidth

    def test_sum_scales_with_population(self):
        store = numeric_store(400)
        engine = QueryEngine(store)
        query = (
            "SELECT (SUM(?v) AS ?total) "
            "WHERE { ?s <http://example.org/value> ?v }"
        )
        answer = approximate_select(engine, query, max_rows=100)
        assert answer.approximate
        exact_total = next(
            iter(engine.query(query).rows[0].values())
        ).value
        (row,) = answer.result.rows
        estimate = next(iter(row.values())).value
        # Scale-up puts the estimate at population scale (not sample scale).
        assert estimate == pytest.approx(exact_total, rel=0.5)

    def test_count_variable_binomial_scale_up(self):
        # Half the subjects carry ?v. OPTIONAL is not one BGP, so there is
        # no first stage to draw from: the stream is drained and the count
        # exact, over a native store and behind the adaptor alike — COUNT(?v)
        # counts the bound cells, not the rows.
        store = MemoryStore()
        for index in range(300):
            subject = IRI(f"{EX}item/{index}")
            store.add(Triple(subject, LABEL, Literal(f"item {index}")))
            if index % 2 == 0:
                store.add(Triple(subject, VALUE, Literal(1.0)))
        parsed = parse_query(
            "SELECT (COUNT(?v) AS ?n) WHERE { "
            "?s <http://example.org/label> ?label . "
            "OPTIONAL { ?s <http://example.org/value> ?v } }"
        )
        assert eligible_aggregate(parsed)
        for served in (store, rows_only(store)):
            exact = approximate_select(QueryEngine(served), parsed, max_rows=60)
            assert not exact.approximate and exact.method == "exact"
            assert exact.rows_consumed == exact.estimated_total == 300
            assert next(iter(exact.result.rows[0].values())).value == 150

    def test_max_rows_must_be_positive(self):
        engine = QueryEngine(numeric_store(10))
        with pytest.raises(ValueError):
            approximate_select(
                engine, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
                max_rows=0,
            )


class TestEngineIndependence:
    """The work bound and the frame hold whatever serves the scan: a
    store's own runs, or the encoding adaptor over ``triples()`` (the
    ``iterator`` case) — a sample of positions either way."""

    @pytest.mark.parametrize("mode", ["iterator", "vectorized"])
    def test_bounded_work_both_engines(self, mode):
        store = numeric_store(500)  # 1000 triples
        engine = QueryEngine(rows_only(store) if mode == "iterator" else store)
        answer = approximate_select(
            engine, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            max_rows=100,
        )
        assert answer.approximate
        assert answer.rows_consumed == 100
        assert answer.estimated_total == 1000
        assert answer.method == "sketch"
        (row,) = answer.result.rows
        (value,) = row.values()
        assert value.value == 1000
        # The drawn rows went up the pipeline as one batch, and only they
        # were accounted as scanned.
        assert engine.stats.scan_batches == 1
        assert engine.stats.scan_rows == 100

    def test_vectorized_prefix_sample_stops_scanning(self):
        store = numeric_store(500)
        engine = QueryEngine(store)
        query = (
            "SELECT (AVG(?v) AS ?mean) "
            "WHERE { ?s <http://example.org/value> ?v }"
        )
        answer = approximate_select(engine, query, max_rows=50)
        assert answer.approximate
        # Work bound: 50 of the scan's 500 rows went up the pipeline.
        assert engine.stats.scan_rows == 50
