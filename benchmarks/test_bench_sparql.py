"""Experiment C10: selectivity-ordered BGP evaluation.

Survey claim (§2): exploration requires *efficient* query evaluation over
large datasets. The classic engine-side lever is join ordering: evaluating
the most selective triple pattern first keeps intermediate bindings small.
Printed: intermediate-binding counts and latency with the optimizer on vs
off, over star-shaped queries on a 60k-triple entity dataset.

Expected shape: orders-of-magnitude fewer intermediates with the optimizer;
identical answers.
"""

import time

from repro.sparql import QueryEngine
from repro.store import MemoryStore
from repro.workload import typed_entities

PREFIX = "PREFIX ex: <http://example.org/data/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "

# textual order puts the unselective patterns first — the worst case the
# optimizer must undo
STAR_QUERY = PREFIX + """
SELECT ?label WHERE {
  ?entity rdfs:label ?label .
  ?entity ex:numeric0 ?value .
  ?entity ex:category0 "value0_1" .
  ?entity a ex:Class3 .
}
"""


def _store() -> MemoryStore:
    return MemoryStore(
        typed_entities(10_000, n_classes=5, numeric_properties=2,
                       categorical_properties=2, seed=23)
    )


def test_c10_optimizer_on_vs_off(benchmark):
    store = _store()
    # One executor on both sides (``optimize`` only turns the rewrites and
    # the ordering off), so the gap is join *ordering* and nothing else.
    optimized = QueryEngine(store, optimize=True)
    naive = QueryEngine(store, optimize=False)

    start = time.perf_counter()
    fast_rows = optimized.query(STAR_QUERY)
    fast_seconds = time.perf_counter() - start
    start = time.perf_counter()
    slow_rows = naive.query(STAR_QUERY)
    slow_seconds = time.perf_counter() - start

    assert sorted(map(str, fast_rows.column("label"))) == sorted(
        map(str, slow_rows.column("label"))
    )

    print("\n\nC10: BGP join ordering (60k triples, star query)")
    print(f"{'engine':>12} | {'intermediates':>13} | {'latency':>9}")
    print(f"{'optimized':>12} | {optimized.stats.intermediate_bindings:>13} | {fast_seconds:>8.3f}s")
    print(f"{'textual':>12} | {naive.stats.intermediate_bindings:>13} | {slow_seconds:>8.3f}s")
    ratio = naive.stats.intermediate_bindings / max(optimized.stats.intermediate_bindings, 1)
    print(f"  intermediate-result reduction: {ratio:.0f}x")
    assert optimized.stats.intermediate_bindings < naive.stats.intermediate_bindings / 5

    benchmark(lambda: QueryEngine(store, optimize=True).query(STAR_QUERY))


def test_c10_aggregation_query(benchmark):
    """Group-by throughput: the facet-count query every browser issues."""
    store = _store()
    query = PREFIX + (
        "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } "
        "GROUP BY ?class ORDER BY DESC(?n)"
    )
    result = benchmark(lambda: QueryEngine(store).query(query))
    counts = [row["n"].value for row in result]
    assert counts == sorted(counts, reverse=True)
    assert sum(counts) == 10_000
    print(f"\n  class distribution: {counts}")
