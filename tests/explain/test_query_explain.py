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


# ---------------------------------------------------------------------------
# Listings (issue 19): Project / Slice continue the id batches, and EXPLAIN
# ANALYZE accounts them per batch to the same totals the row forms counted.
# ---------------------------------------------------------------------------

LISTING_PREFIXES = PREFIXES + "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
PAGE = (
    "SELECT ?s ?l ?v WHERE { ?s rdf:type ex:Class0 . ?s rdfs:label ?l . "
    "?s ex:numeric1 ?v . FILTER(?v > 95.125) }"
)
# template -> (query, Project actual=, Slice actual=) as EXPLAIN ANALYZE
# printed them before the change (Slice None: the plan has none)
LISTINGS = {
    "point": ("SELECT ?p ?o WHERE { ex:entity17 ?p ?o }", 8, None),
    "twohop": (
        "SELECT ?m ?l WHERE { ex:entity17 ex:linksTo ?n . ?n ex:linksTo ?m . "
        "?m rdfs:label ?l }", 4, None,
    ),
    "star": (
        "SELECT ?s ?l ?v ?c WHERE { ?s rdf:type ex:Class1 . ?s rdfs:label ?l . "
        "?s ex:numeric0 ?v . ?s ex:category1 ?c . FILTER(?v > 45.5) } LIMIT 20",
        20, 20,
    ),
    "page": (PAGE + " LIMIT 50", 50, 50),
    "page_offset": (PAGE + " OFFSET 30 LIMIT 50", 50, 50),
}


@pytest.mark.parametrize("template", sorted(LISTINGS))
def test_listing_explain_analyze_counts_what_the_row_forms_counted(store, template):
    query, project_rows, slice_rows = LISTINGS[template]
    engine = QueryEngine(store)
    plan = engine.explain(LISTING_PREFIXES + query)
    rendered = plan.render()
    assert plan.operator == "Project" and plan.actual_rows == project_rows, rendered
    slices = plan.find("Slice")
    assert [node.actual_rows for node in slices] == (
        [] if slice_rows is None else [slice_rows]), rendered
    assert all(node.wall_ms is not None for node in plan.walk())
    # the plan a query carries is that same run: id batches, counted per batch
    result = engine.query(LISTING_PREFIXES + query)
    assert result.plan.actual_rows == len(result) == project_rows
    assert engine.stats.operator_rows["Project"] == 2 * project_rows


def test_listing_plan_is_the_one_it_was(store):
    # explain(analyze=False) of the page template: the tree and the join
    # order it had before id batches reached the wire, less the strategy
    # token there is nothing left to choose, and with the class priced at
    # its count (Zipf-sized classes: 261 of the 600 entities are Class0,
    # where the snapshot's 600 / 6 said 100)
    plan = QueryEngine(store).explain(LISTING_PREFIXES + PAGE + " LIMIT 50", analyze=False)
    assert plan.render() == (
        "Project ?s, ?l, ?v  (est=1.4 actual=-)\n"
        "  Slice limit=50  (est=1.4 actual=-)\n"
        "    VectorizedBGP filter=id[?v > 95.125]  (est=1.4 actual=-)\n"
        "      IdScan ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://example.org/data/Class0>  (est=261.0 actual=-)\n"
        "      IdScan ?s <http://example.org/data/numeric1> ?v  (est=600.0 actual=-)\n"
        "      IdScan ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l  (est=600.0 actual=-)"
    )
