"""The plan pipeline: logical rewrites, cost-based ordering, physical
operators, EXPLAIN, statistics-only planning, digests, and EvalStats.

The centerpiece is the plan-equivalence suite: for a corpus of queries over
the :mod:`repro.workload.rdf_graphs` generators, the optimized pipeline,
the unoptimized pipeline, and every store backend must produce the row
multiset of the naive evaluator (``tests/sparql/reference.py``).
"""

import dataclasses
from collections import Counter

import pytest

from repro.rdf import Graph, parse_turtle
from repro.rdf.terms import Literal, Triple, Variable
from repro.sparql import (
    CardinalityEstimator,
    EvalStats,
    QueryEngine,
    estimate_cardinality,
    parse_query,
    query,
    query_digest,
)
from repro.sparql.nodes import TriplePatternNode
from repro.store import MemoryStore, PagedTripleStore
from repro.store.base import FIRST_BATCH_SIZE
from repro.workload.rdf_graphs import lod_dataset, social_graph, typed_entities
from tests.helpers import rows_only
from tests.sparql.reference import reference_answer

FOAF = "http://xmlns.com/foaf/0.1/"

PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

CORPUS_TRIPLES = {
    "social": list(social_graph(40, seed=11)),
    "typed": list(typed_entities(60, seed=12)),
    "lod": list(lod_dataset(30, seed=13)),
}

CORPUS_QUERIES = {
    "social": [
        "SELECT ?n WHERE { ?p foaf:name ?n }",
        "SELECT ?p ?a WHERE { ?p a foaf:Person . ?p foaf:age ?a "
        "FILTER(?a > 30 && ?a < 70) }",
        "SELECT ?p ?f WHERE { ?p a foaf:Person OPTIONAL { ?p foaf:knows ?f } }",
        "SELECT ?p WHERE { ?p a foaf:Person OPTIONAL { ?p foaf:knows ?f } "
        "FILTER(!BOUND(?f)) }",
        "SELECT ?x WHERE { { ?x foaf:knows ?y } UNION { ?y foaf:knows ?x } }",
        "SELECT DISTINCT ?a WHERE { ?p foaf:age ?a } ORDER BY DESC(?a) "
        "LIMIT 7 OFFSET 2",
        "SELECT ?a (COUNT(?p) AS ?c) WHERE { ?p foaf:age ?a } GROUP BY ?a "
        "HAVING (COUNT(?p) >= 2)",
        "SELECT ?p ?d WHERE { ?p foaf:age ?a BIND(?a * 2 AS ?d) }",
        # Cartesian product of two small filtered sets (hash-join territory).
        "SELECT ?a ?b WHERE { ?a foaf:age ?x FILTER(?x > 80) . "
        "?b foaf:age ?y FILTER(?y < 25) }",
        # Constant-foldable filters: one vacuous, one contradictory.
        "SELECT ?n WHERE { ?p foaf:name ?n FILTER(1 + 1 = 2) }",
        "SELECT ?n WHERE { ?p foaf:name ?n FILTER(1 > 2) }",
        "SELECT (?a + 1 AS ?next) WHERE { ?p foaf:age ?a } ORDER BY ?p LIMIT 5",
        "SELECT ?p ?n WHERE { VALUES ?p { ex:person0 ex:person3 } "
        "?p foaf:name ?n }",
    ],
    "typed": [
        "SELECT ?e WHERE { ?e a ex:Class0 }",
        "SELECT ?e ?v WHERE { ?e a ex:Class1 . ?e ex:numeric0 ?v "
        "FILTER(?v >= 40) }",
        "SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e a ?c } GROUP BY ?c",
        'SELECT ?e WHERE { ?e rdfs:label ?l FILTER(REGEX(?l, "1$")) }',
        "SELECT DISTINCT ?v WHERE { ?e ex:category0 ?v } ORDER BY ?v",
        "SELECT ?e ?l WHERE { ?e a ex:Class2 . ?e rdfs:label ?l . "
        "?e ex:numeric1 ?v FILTER(?v < 100) } ORDER BY ?e LIMIT 10",
    ],
    "lod": [
        "SELECT ?c ?s WHERE { ?c rdfs:subClassOf ?s }",
        "SELECT ?a ?c WHERE { ?a rdfs:subClassOf ?b . ?b rdfs:subClassOf ?c }",
        "SELECT ?city ?pop WHERE { ?city a ex:City . ?city ex:population ?pop } "
        "ORDER BY DESC(?pop) ?city LIMIT 8",
        "SELECT ?a ?b WHERE { ?a ex:twinnedWith ?b . ?b ex:twinnedWith ?c }",
        'SELECT ?city WHERE { ?city ex:founded ?f FILTER(YEAR(?f) > 1500) }',
        "ASK { ?c rdfs:subClassOf ex:Place }",
    ],
}

EQUIVALENCE_CASES = [
    pytest.param(name, text, id=f"{name}-{index}")
    for name, texts in CORPUS_QUERIES.items()
    for index, text in enumerate(texts)
]


def row_multiset(rows):
    return sorted(
        tuple(sorted((str(var), term.n3()) for var, term in row.items()))
        for row in rows
    )


# ORDER BY reads the projected row, which does not bind ?p: every row ties,
# and which five the window keeps is the store's scan order, not semantics.
_ARBITRARY_WINDOW = "ORDER BY ?p LIMIT 5"


@pytest.fixture(scope="module")
def paged_corpus(tmp_path_factory):
    stores = {
        name: PagedTripleStore.build(triples, str(tmp_path_factory.mktemp(name)))
        for name, triples in CORPUS_TRIPLES.items()
    }
    yield stores
    for store in stores.values():
        store.close()


class TestPlanEquivalence:
    @pytest.mark.parametrize("name,text", EQUIVALENCE_CASES)
    def test_identical_rows_across_stores_and_pipelines(self, name, text, paged_corpus):
        triples = CORPUS_TRIPLES[name]
        full = PREFIXES + text
        baseline = reference_answer(full, triples)
        stores = [Graph(triples), MemoryStore(triples), paged_corpus[name]]
        if isinstance(baseline, bool):  # ASK
            for store in stores:
                for optimize in (True, False):
                    assert QueryEngine(store, optimize=optimize).query(full) == baseline
            return
        expected = row_multiset(baseline)
        arbitrary = text.endswith(_ARBITRARY_WINDOW)
        if arbitrary:  # any five solutions of the query without its window
            everything = Counter(row_multiset(reference_answer(
                full[: -len(_ARBITRARY_WINDOW)], triples
            )))
        for store in stores:
            for optimize in (True, False):
                rows = row_multiset(QueryEngine(store, optimize=optimize).query(full).rows)
                where = f"{name} store={type(store).__name__} optimize={optimize}"
                if arbitrary:
                    assert len(rows) == len(expected), where
                    assert not Counter(rows) - everything, where
                else:
                    assert rows == expected, where


# --------------------------------------------------------------------------- #
# Cardinality estimation
# --------------------------------------------------------------------------- #

DATA = """
@prefix ex: <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice a foaf:Person ; foaf:name "Alice" ; foaf:age 30 ; foaf:knows ex:bob .
ex:bob a foaf:Person ; foaf:name "Bob" ; foaf:age 25 .
"""


def small_graph():
    return Graph(parse_turtle(DATA))


class TestEstimateCardinality:
    def test_fully_bound_present_pattern_estimates_one(self):
        g = small_graph()
        pattern = parse_query(
            "PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT * WHERE { ex:alice foaf:knows ex:bob }"
        ).where.elements[0]
        assert estimate_cardinality(g, pattern) == 1

    def test_fully_bound_absent_pattern_estimates_zero(self):
        # Regression: this used to be hardcoded to 1 regardless of the store.
        g = small_graph()
        pattern = parse_query(
            "PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT * WHERE { ex:bob foaf:knows ex:alice }"
        ).where.elements[0]
        assert estimate_cardinality(g, pattern) == 0

    def test_unbound_pattern_estimates_store_size(self):
        g = small_graph()
        pattern = TriplePatternNode(Variable("s"), Variable("p"), Variable("o"))
        assert estimate_cardinality(g, pattern) == len(g)

    def test_snapshot_estimator_uses_predicate_histogram(self):
        g = small_graph()
        estimator = CardinalityEstimator.for_store(g)
        assert estimator.snapshot is not None
        from repro.rdf.namespace import Namespace

        foaf = Namespace(FOAF)
        knows = TriplePatternNode(Variable("s"), foaf.knows, Variable("o"))
        assert estimator.pattern_cardinality(knows) == 1.0
        absent = TriplePatternNode(Variable("s"), foaf.mbox, Variable("o"))
        assert estimator.pattern_cardinality(absent) == 0.0


    def test_bound_object_is_priced_by_its_own_predicates_objects(self):
        """``(?, p, o)`` from a snapshot = the predicate's triples over
        *its* distinct objects. The store holds thousands of distinct
        objects (labels, numbers) and rdf:type six of them: dividing by the
        global count priced every class and every category value at 1.0
        row. The store itself does not estimate: it counts."""
        store = MemoryStore(typed_entities(
            3_000, n_classes=6, numeric_properties=2, categorical_properties=2, seed=7))
        counted = CardinalityEstimator.for_store(store)
        estimator = CardinalityEstimator(snapshot=store.statistics())
        assert store.statistics().distinct_objects > 3_000
        for text in ("?s rdf:type ex:Class1", '?s ex:category0 "value0_1"'):
            pattern = parse_query(
                _DIGEST_PREFIXES + f"SELECT * WHERE {{ {text} }}"
            ).where.elements[0]
            actual = store.count((None, pattern.predicate, pattern.object))
            assert counted.pattern_cardinality(pattern) == actual
            estimate = estimator.pattern_cardinality(pattern)
            assert actual / 2 <= estimate <= 2 * actual, (text, estimate, actual)
        # a snapshot without the per-predicate figure: the global count
        bare = CardinalityEstimator(snapshot=dataclasses.replace(
            store.statistics(), predicate_distinct_objects={}))
        assert bare.pattern_cardinality(pattern) == 1.0


class TestStatisticsOnlyPlanning:
    def test_no_live_store_calls_at_plan_time(self):
        inner = Graph(social_graph(30, seed=7))

        class SpyStore:
            def __init__(self):
                self.count_calls = 0
                self.triples_calls = 0

            def triples(self, pattern=(None, None, None)):
                self.triples_calls += 1
                return inner.triples(pattern)

            def count(self, pattern=(None, None, None)):
                self.count_calls += 1
                return inner.count(pattern)

            def __len__(self):
                return len(inner)

            def statistics(self):
                return inner.statistics()

        spy = SpyStore()
        engine = QueryEngine(spy)
        text = (
            PREFIXES + "SELECT ?p ?n ?a WHERE { ?p a foaf:Person . "
            "?p foaf:name ?n . ?p foaf:age ?a FILTER(?a > 21) }"
        )
        engine.explain(text, analyze=False)
        assert spy.count_calls == 0
        assert spy.triples_calls == 0
        # Execution (not planning) is what touches the store.
        engine.query(text)
        assert spy.triples_calls > 0
        assert spy.count_calls == 0

    def test_store_without_statistics_still_plans(self):
        inner = Graph(social_graph(10, seed=7))

        class BareStore:
            def triples(self, pattern=(None, None, None)):
                return inner.triples(pattern)

            def count(self, pattern=(None, None, None)):
                return inner.count(pattern)

            def __len__(self):
                return len(inner)

        engine = QueryEngine(BareStore())
        result = engine.query(PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }")
        assert len(result.rows) == 10


# --------------------------------------------------------------------------- #
# EXPLAIN
# --------------------------------------------------------------------------- #


_DIGEST_PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

# EXPLAIN of the two-component query of
# ``test_both_lowerings_share_the_plan_above_the_components``. Above the
# components it is the tree the commit before the two BGP builders were
# merged rendered for the row operators, under today's names: the
# projection prune is a ``Project`` and the component join a ``Join``, and
# a BGP no longer lists the variables it decoded. ``_RENDER`` is the plan of a source
# that publishes a snapshot: the estimates are the ones the per-predicate
# distinct-object count gives (60 typed entities over 3 classes: 20 a
# class). ``_RENDER_COUNTED`` is the plan of the store itself, which counts:
# Class1 has 22 members and Class0 24, so the smaller one leads.
_RENDER_COUNTED = """\
Project ?a, ?b  (est=1.6 actual=-)
  Project ?a, ?b  (est=1.6 actual=-)
    Filter (?v < ?w)  (est=1.6 actual=-)
      Join  (est=4.9 actual=-)
        VectorizedBGP  (est=3.7 actual=-)
          IdScan ?b <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/data/Class1>  (est=22.0 actual=-)
          IdScan ?b <http://example.org/data/numeric0> ?w  (est=60.0 actual=-)
        VectorizedBGP filter=id[?v > 60]  (est=1.3 actual=-)
          IdScan ?a <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/data/Class0>  (est=24.0 actual=-)
          IdScan ?a <http://example.org/data/numeric0> ?v  (est=60.0 actual=-)"""

_RENDER = """\
Project ?a, ?b  (est=1.2 actual=-)
  Project ?a, ?b  (est=1.2 actual=-)
    Filter (?v < ?w)  (est=1.2 actual=-)
      Join  (est=3.7 actual=-)
        VectorizedBGP filter=id[?v > 60]  (est=1.1 actual=-)
          IdScan ?a <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/data/Class0>  (est=20.0 actual=-)
          IdScan ?a <http://example.org/data/numeric0> ?v  (est=60.0 actual=-)
        VectorizedBGP  (est=3.3 actual=-)
          IdScan ?b <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/data/Class1>  (est=20.0 actual=-)
          IdScan ?b <http://example.org/data/numeric0> ?w  (est=60.0 actual=-)"""

# (query, digest): the ten template shapes of benchmarks/e2e plus one query
# per group construct. The digests were computed by the commit that still
# went through ``sparql/algebra.py``; result-cache keys and the
# REPRO_QUERYLOG_DIR JSONL mirror persist them, so they must not move.
_PINNED_DIGESTS = {
    "point": (
        "SELECT ?p ?o WHERE { ex:entity7 ?p ?o }",
        "20dbd89407933e7600d17600671baab2070f7b63a6457ee363575ea9f1107b74",
    ),
    "twohop": (
        "SELECT ?m ?l WHERE { ex:entity7 ex:linksTo ?n . ?n ex:linksTo ?m . "
        "?m rdfs:label ?l }",
        "5c6ebbdb6815dff5fd85dfe9c6f01a464fc5f771aaece0f33856b2bae9dface1",
    ),
    "star": (
        "SELECT ?s ?l ?v ?c WHERE { ?s rdf:type ex:Class1 . ?s rdfs:label ?l . "
        "?s ex:numeric0 ?v . ?s ex:category1 ?c . FILTER(?v > 36.052) } LIMIT 20",
        "6265da482b46bf3a66c9089d359f60a4aa9c269b6b958d7790a04d9d987473fe",
    ),
    "page": (
        "SELECT ?s ?l ?v WHERE { ?s rdf:type ex:Class2 . ?s rdfs:label ?l . "
        "?s ex:numeric1 ?v . FILTER(?v > 95.5) } LIMIT 2000",
        "767dc3177451c9e8123f1eb976765a8da3e530098b6f5380d5bfeb780c1b8462",
    ),
    "gb_all": (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        "?s ex:category0 ?c . ?s ex:numeric1 ?v . FILTER(?v < 113.278) } GROUP BY ?c",
        "76c32b70c013c9cf1afa9e803059a3f6507cfafd85f561e6461c9709476c2047",
    ),
    "gb_class": (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { ?s rdf:type ex:Class1 . "
        "?s ex:category1 ?c . ?s ex:numeric0 ?v . FILTER(?v > 45.3) } GROUP BY ?c",
        "2ad7a47890e4a190f5231179f929277e848f76f8d7a236697cf81318cc6333ba",
    ),
    "facet": (
        "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s ex:category0 ?o . ?s ex:numeric0 ?v . "
        "FILTER(?v < 55.1) } GROUP BY ?o",
        "da1ecf1960e99ce7066842605be7ce98f128bdde16e32ccad94e716095590b95",
    ),
    "count_distinct": (
        "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s rdf:type ex:Class1 . "
        "?s ex:linksTo ?t . ?s ex:numeric1 ?v . FILTER(?v > 90.25) }",
        "4ac788729e173f2adc2d7a793c2b547e3eca4efec2d46ee0b9dd43095a726625",
    ),
    "avg": (
        "SELECT (AVG(?v) AS ?mean) (COUNT(?s) AS ?n) WHERE { ?s rdf:type ex:Class1 . "
        "?s ex:numeric0 ?v . FILTER(?v < 54.0) }",
        "10efdc41d1f676f371bf073e552b4ffe9dbe272d95b8482976b9a31c4e8b6c54",
    ),
    "topk": (
        "SELECT ?s ?v WHERE { ?s rdf:type ex:Class1 . ?s ex:numeric0 ?v . "
        "FILTER(?v > 45.323) } ORDER BY DESC(?v) LIMIT 20",
        "f18e27b0509d3d295891e490c653b93df3e41c54428aea3f3a93ce004287c646",
    ),
    "optional": (
        "SELECT ?s ?l ?v WHERE { ?s rdfs:label ?l "
        "OPTIONAL { ?s ex:numeric0 ?v FILTER(?v > 50) } }",
        "1959ee172e7f47739ae7aa43a2a40c5ee6ca2d2494664f353ea7a2bd174d5ff6",
    ),
    "union": (
        "SELECT ?s ?x WHERE { { ?s ex:category0 ?x } UNION { ?s ex:category1 ?x } "
        "?s rdf:type ex:Class1 }",
        "0b61e0f5a29fe25a02a38a240616441618e27dbfd88e8aca13a866349036139b",
    ),
    "bind": (
        "SELECT ?s ?d WHERE { ?s ex:numeric0 ?v BIND(?v * 2 AS ?d) "
        "?s rdf:type ex:Class0 FILTER(?d > 90) }",
        "d9a0549082f1e819911937d21c979dc0dd020960799972aea80527c19e545aa8",
    ),
    "values": (
        "SELECT ?s ?l WHERE { VALUES ?s { ex:entity1 ex:entity2 } ?s rdfs:label ?l }",
        "311318dce8f95b59d414d9f1e83bcd2a39e0be62ecea6f283ef0c568b564ca67",
    ),
    "nested_group": (
        "SELECT ?s ?v WHERE { ?s rdf:type ex:Class2 "
        "{ ?s ex:numeric1 ?v FILTER(?v < 100) } }",
        "b9ef4f25e5a6f2ef4e6b62cde6f18eeae980dfb26cbed8d5ec48d8d73644a0f2",
    ),
    "sibling_filters": (
        "SELECT ?s WHERE { FILTER(?v > 40) ?s ex:numeric0 ?v . "
        'FILTER(?v < 60 && ?c != "value0_0") ?s ex:category0 ?c }',
        "4441fdb12f130c633f47fa5ce5128ed3b358a77819d8a7d4154c469f26f2c970",
    ),
}


class TestExplain:
    def _engine(self):
        return QueryEngine(Graph(typed_entities(50, seed=4)))

    def test_analyze_reports_estimates_and_actuals(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e ?v WHERE { ?e a ex:Class0 . ?e ex:numeric0 ?v } "
            "ORDER BY ?v LIMIT 3"
        )
        operators = [n.operator for n in node.walk()]
        assert operators[0] == "Slice"
        assert "Sort" in operators
        assert "Project" in operators
        assert "IdScan" in operators
        scans = node.find("IdScan")
        assert all(scan.estimated_rows is not None for scan in scans)
        executed = [n for n in node.walk() if n.actual_rows is not None]
        assert executed, "analyze must fill actual row counts"
        assert node.actual_rows == 3  # the LIMIT window

    def test_without_analyze_store_is_untouched_and_actuals_empty(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 }", analyze=False
        )
        assert all(n.actual_rows is None for n in node.walk())
        assert node.find("IdScan")[0].estimated_rows > 0

    def test_filter_pushdown_places_filter_below_join(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 . ?e ex:numeric0 ?v "
            "FILTER(?v > 0) . ?e ex:category0 ?c }",
            analyze=False,
        )
        # The filter must sit inside the BGP (a mask over its batches), not
        # at the plan root.
        assert not node.find("Filter")
        (bgp,) = node.find("VectorizedBGP")
        assert "filter=id[?v > 0]" in bgp.detail

    def test_disjoint_components_use_hash_join(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?a ?b WHERE { ?a ex:numeric0 ?x . ?b ex:numeric1 ?y }",
            analyze=False,
        )
        assert node.find("Join"), "cartesian components should hash-join"

    def test_both_lowerings_share_the_plan_above_the_components(self):
        """Two disjoint components, a local and a spanning filter, under a
        projection: the store's own plan and the plan over ``rows_only``
        (the same store behind the encoding adaptor) are one tree above the
        components. Below it they are priced differently — the store counts
        its patterns, the double publishes a snapshot — and here the counts
        put the other component first."""
        store = MemoryStore(typed_entities(60, n_classes=3, seed=12))
        text = _DIGEST_PREFIXES + (
            "SELECT ?a ?b WHERE { ?a rdf:type ex:Class0 . ?a ex:numeric0 ?v . "
            "?b rdf:type ex:Class1 . ?b ex:numeric0 ?w . "
            "FILTER(?v > 60) FILTER(?v < ?w) }"
        )

        def above_components(node, depth=0):
            yield depth, node.operator, node.detail
            if node.operator != "Join":
                for child in node.children:
                    yield from above_components(child, depth + 1)

        batches = QueryEngine(store).explain(text, analyze=False)
        rows = QueryEngine(rows_only(store)).explain(text, analyze=False)
        assert [operator for _, operator, _ in above_components(rows)] == [
            operator for _, operator, _ in above_components(batches)
        ] == ["Project", "Project", "Filter", "Join"]
        assert rows.render() == _RENDER
        assert batches.render() == _RENDER_COUNTED

    def test_limit_pushdown_slices_below_projection(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 } LIMIT 2", analyze=False
        )
        assert node.operator == "Project"
        assert node.children[0].operator == "Slice"

    def test_sort_blocks_limit_pushdown(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 } ORDER BY ?e LIMIT 2",
            analyze=False,
        )
        assert node.operator == "Slice"

    def test_render_is_printable(self):
        engine = self._engine()
        text = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 }"
        ).render()
        assert "IdScan" in text
        assert "est=" in text and "actual=" in text

    def test_constant_true_filter_is_folded_away(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "SELECT ?e WHERE { ?e a ex:Class0 FILTER(1 + 1 = 2) }",
            analyze=False,
        )
        assert not node.find("Filter")

    def test_describe_without_where_has_trivial_plan(self):
        engine = self._engine()
        node = engine.explain(
            PREFIXES + "DESCRIBE ex:entity0", analyze=False
        )
        assert node.operator == "Describe"


# --------------------------------------------------------------------------- #
# EvalStats contract
# --------------------------------------------------------------------------- #


class TestEvalStats:
    def test_engine_stats_accumulate_across_queries(self):
        engine = QueryEngine(small_graph())
        text = PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }"
        engine.query(text)
        after_one = engine.stats.store_lookups
        engine.query(text)
        assert engine.stats.store_lookups == 2 * after_one

    def test_result_carries_per_query_stats(self):
        engine = QueryEngine(small_graph())
        text = PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }"
        first = engine.query(text)
        second = engine.query(text)
        assert first.stats is not second.stats
        assert first.stats.solutions == 2
        assert second.stats.solutions == 2
        assert first.stats.store_lookups == second.stats.store_lookups
        assert first.stats.operator_rows["IdScan"] == 2

    def test_reset_zeroes_in_place(self):
        stats = EvalStats()
        stats.store_lookups = 3
        stats.intermediate_bindings = 5
        stats.solutions = 2
        stats.record_rows("IndexScan", 4)
        rows_ref = stats.operator_rows
        stats.reset()
        assert stats.store_lookups == 0
        assert stats.intermediate_bindings == 0
        assert stats.solutions == 0
        assert stats.operator_rows == {}
        assert stats.operator_rows is rows_ref  # cleared in place, not rebound

    def test_engine_stats_reset_contract(self):
        engine = QueryEngine(small_graph())
        held = engine.stats
        engine.query(PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }")
        assert held.solutions > 0
        engine.stats.reset()
        assert engine.stats is held
        assert held.solutions == 0
        engine.query(PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }")
        assert held.solutions == 2

    def test_merge_adds_counters(self):
        a = EvalStats(store_lookups=1, intermediate_bindings=2, solutions=3)
        a.record_rows("Filter", 4)
        b = EvalStats(store_lookups=10, intermediate_bindings=20, solutions=30)
        b.record_rows("Filter", 1)
        b.record_rows("Sort", 2)
        a.merge(b)
        assert a.store_lookups == 11
        assert a.intermediate_bindings == 22
        assert a.solutions == 33
        assert a.operator_rows == {"Filter": 5, "Sort": 2}


# --------------------------------------------------------------------------- #
# Plan digests
# --------------------------------------------------------------------------- #


class TestPlanDigest:
    def test_whitespace_and_prefix_variants_share_a_digest(self):
        engine = QueryEngine(small_graph())
        a = engine.plan_digest(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT ?n WHERE { ?p foaf:name ?n }"
        )
        b = engine.plan_digest(
            "PREFIX f: <http://xmlns.com/foaf/0.1/>\n"
            "SELECT ?n\nWHERE {\n  ?p f:name ?n\n}"
        )
        assert a == b

    def test_different_limits_have_different_digests(self):
        engine = QueryEngine(small_graph())
        base = PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }"
        assert engine.plan_digest(base + " LIMIT 1") != engine.plan_digest(
            base + " LIMIT 2"
        )

    def test_constant_folded_filters_share_a_digest(self):
        engine = QueryEngine(small_graph())
        plain = engine.plan_digest(PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n }")
        folded = engine.plan_digest(
            PREFIXES + "SELECT ?n WHERE { ?p foaf:name ?n FILTER(1 + 1 = 2) }"
        )
        assert plain == folded

    def test_forms_are_distinguished(self):
        engine = QueryEngine(small_graph())
        select = engine.plan_digest(PREFIXES + "SELECT * WHERE { ?s foaf:name ?n }")
        ask = engine.plan_digest(PREFIXES + "ASK { ?s foaf:name ?n }")
        assert select != ask

    @pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
    def test_digests_are_pinned(self, name):
        text, digest = _PINNED_DIGESTS[name]
        assert query_digest(parse_query(_DIGEST_PREFIXES + text)) == digest


# --------------------------------------------------------------------------- #
# Misc orchestration behaviour preserved from the monolithic evaluator
# --------------------------------------------------------------------------- #


class _CountingGraph(Graph):
    """Counts the triples consumers actually pull out of ``triples()``."""

    pulled = 0

    def triples(self, pattern=(None, None, None)):
        for triple in super().triples(pattern):
            self.pulled += 1
            yield triple


class TestOrchestration:
    def test_construct_respects_limit_and_offset(self):
        g = small_graph()
        built = query(
            g,
            PREFIXES + "CONSTRUCT { ?p foaf:name ?n } WHERE { ?p foaf:name ?n } LIMIT 1",
        )
        assert len(built) == 1

    def test_ask_stops_at_first_solution(self):
        g = _CountingGraph(social_graph(1_500, seed=2))
        engine = QueryEngine(g)
        assert engine.query(PREFIXES + "ASK { ?p a foaf:Person }") is True
        # Streaming: one lookup and the first chunk the adaptor encodes —
        # not the 1 500 members of the class.
        assert engine.stats.store_lookups == 1
        assert 1 <= g.pulled <= FIRST_BATCH_SIZE

    def test_limit_streams_instead_of_materializing(self):
        g = _CountingGraph(social_graph(1_500, seed=2))
        engine = QueryEngine(g)
        result = engine.query(
            PREFIXES + "SELECT ?p ?n WHERE { ?p a foaf:Person . ?p foaf:name ?n } LIMIT 5"
        )
        assert len(result.rows) == 5
        # One chunk of the class, and one name lookup per member of it.
        assert g.pulled <= 2 * FIRST_BATCH_SIZE
        assert engine.stats.intermediate_bindings <= 2 * FIRST_BATCH_SIZE
