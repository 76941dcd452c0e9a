"""EXPLAIN ANALYZE of the chart-shaped queries (issue 16).

This directory otherwise tests :mod:`repro.explain` (outlier explanation);
this one file is the *query-plan* EXPLAIN acceptance case for the six
``chart`` templates of ``benchmarks/e2e/workloads.py``: each must be
answered by a batch operator over id batches, with its FILTER evaluated in
id space — no row ``Aggregate`` over per-row BGP output, no
``filter=row[...]``.
"""

import pytest

from repro.sparql import QueryEngine
from repro.store import MemoryStore
from repro.workload.rdf_graphs import powerlaw_link_graph, typed_entities, EX
from tests.helpers import rows_only

PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

TEMPLATES = {
    "gb_all": (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        "?s ex:category0 ?c . ?s ex:numeric1 ?v . FILTER(?v < 104.2) } GROUP BY ?c",
        "BatchAggregate", "group=?c aggs=COUNT,AVG",
    ),
    "gb_class": (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        "?s rdf:type ex:Class1 . ?s ex:category1 ?c . ?s ex:numeric0 ?v . "
        "FILTER(?v > 45.5) } GROUP BY ?c",
        "BatchAggregate", "group=?c aggs=COUNT,AVG",
    ),
    "facet": (
        "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s ex:category0 ?o . "
        "?s ex:numeric0 ?v . FILTER(?v > 45.5) } GROUP BY ?o",
        "BatchAggregate", "group=?o aggs=COUNT",
    ),
    "count_distinct": (
        "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s rdf:type ex:Class1 . "
        "?s ex:linksTo ?t . ?s ex:numeric0 ?v . FILTER(?v < 54.5) }",
        "BatchAggregate", "implicit group aggs=COUNT",
    ),
    "avg": (
        "SELECT (AVG(?v) AS ?mean) (COUNT(?s) AS ?n) WHERE { "
        "?s rdf:type ex:Class1 . ?s ex:numeric1 ?v . FILTER(?v < 104.2) }",
        "BatchAggregate", "implicit group aggs=AVG,COUNT",
    ),
    "topk": (
        "SELECT ?s ?v WHERE { ?s rdf:type ex:Class1 . ?s ex:numeric0 ?v . "
        "FILTER(?v > 45.5) } ORDER BY DESC(?v) LIMIT 20",
        "TopK", "k=20 by ?v DESC",
    ),
}


@pytest.fixture(scope="module")
def store():
    built = MemoryStore(typed_entities(
        600, n_classes=6, numeric_properties=2, categorical_properties=2, seed=7))
    for triple in powerlaw_link_graph(600, 2, 8, node_factory=lambda i: EX[f"entity{i}"]):
        built.add(triple)
    return built


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_chart_template_runs_on_the_batch_operators(store, template):
    query, operator, detail = TEMPLATES[template]
    plan = QueryEngine(store).explain(PREFIXES + query)
    rendered = plan.render()
    batch = plan.find(operator)
    assert len(batch) == 1 and batch[0].detail == detail, rendered
    assert not plan.find("Aggregate") and not plan.find("Filter"), rendered
    bgp = plan.find("VectorizedBGP")
    assert len(bgp) == 1 and batch[0].children == (bgp[0],), rendered
    assert "filter=id[?v " in bgp[0].detail and "row[" not in bgp[0].detail, rendered
    assert "fallback" not in rendered
    assert batch[0].actual_rows > 0
    # and the answer is the row operators' (the reference)
    reference = QueryEngine(rows_only(store)).query(PREFIXES + query)
    answer = QueryEngine(store).query(PREFIXES + query)
    key = lambda row: sorted((str(v), t.n3()) for v, t in row.items())
    if template == "topk":
        assert [row["v"] for row in answer.rows] == [row["v"] for row in reference.rows]
    elif template in ("gb_all", "gb_class", "avg"):
        assert len(answer.rows) == len(reference.rows)
        for got, want in zip(sorted(answer.rows, key=key), sorted(reference.rows, key=key)):
            assert got["n"] == want["n"]
            assert got["mean"].datatype == want["mean"].datatype
            assert got["mean"].value == pytest.approx(want["mean"].value, rel=1e-9)
    else:
        assert sorted(map(key, answer.rows)) == sorted(map(key, reference.rows))
