"""Unbound cells and computed terms in id columns, against the oracle.

Every column an operator yields is int64 ids: -1 is an unbound cell and an
id <= -2 a term the plan computed that the store does not hold (BIND,
SELECT expressions, aggregate results, VALUES constants), kept in the
plan's term table. Each case here puts one of those where an operator has
to read it — OPTIONAL inside UNION, VALUES with UNDEF joined to an
OPTIONAL, BIND over an unbound variable, DISTINCT / ORDER BY / GROUP BY
over unbound cells, a constant the store also holds joined to a BGP, the
``SELECT *`` header of a UNION — and checks the answer against
``tests/sparql/reference.py`` on every store kind, with ``optimize`` on
and off. Two properties close it: the store dictionary never grows, and
the shed tier reads a computed value as its value, not as unbound and not
as some store term's.
"""

import tempfile

import pytest

from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.server.sketch import sketched_select
from repro.sparql import QueryEngine
from repro.store import CrackingTripleStore, MemoryStore, PagedTripleStore
from tests.helpers import assert_same_rows
from tests.sparql.reference import reference_answer
from tests.sparql.test_reference_parity import _store_kinds

NS = "http://unbound.test/"
NODES = [IRI(NS + f"n{i}") for i in range(6)]
KIND, NUM, LINK, LABEL = (IRI(NS + name) for name in ("kind", "num", "link", "label"))

TRIPLES = (
    [Triple(node, KIND, Literal(f"k{i % 2}")) for i, node in enumerate(NODES)]
    # n4 and n5 have no number: an OPTIONAL over u:num leaves them unbound
    + [Triple(node, NUM, Literal(i + 1)) for i, node in enumerate(NODES[:4])]
    + [Triple(NODES[i], LINK, NODES[(i + 1) % 6]) for i in (0, 2, 4)]
    + [Triple(NODES[1], LABEL, Literal("one")), Triple(NODES[3], LABEL, Literal("k0"))]
)

PREFIX = f"PREFIX u: <{NS}> "

CASES = {
    "optional_inside_union": (
        "SELECT ?a ?k ?v ?b WHERE { { ?a u:kind ?k OPTIONAL { ?a u:num ?v } } "
        "UNION { ?a u:link ?b } }"
    ),
    "values_undef_joined_to_optional": (
        "SELECT ?a ?v ?x WHERE { ?a u:kind ?k OPTIONAL { ?a u:num ?v } "
        'VALUES (?v ?x) { (1 "one") (UNDEF "any") (9 "nine") } }'
    ),
    "bind_over_optional_unbound": (
        "SELECT ?a ?d ?has WHERE { ?a u:kind ?k OPTIONAL { ?a u:num ?v } "
        "BIND(?v * 2 AS ?d) BIND(BOUND(?v) AS ?has) }"
    ),
    "distinct_over_unbound": (
        "SELECT DISTINCT ?k ?v WHERE { ?a u:kind ?k OPTIONAL { ?a u:num ?v FILTER(?v > 2) } }"
    ),
    "order_by_unbound": (
        "SELECT ?a ?v WHERE { ?a u:kind ?k OPTIONAL { ?a u:num ?v } } ORDER BY DESC(?v) ?a"
    ),
    "group_by_optional_variable": (
        "SELECT ?v (COUNT(?a) AS ?n) (SAMPLE(?k) AS ?some) WHERE { ?a u:kind ?k "
        "OPTIONAL { ?a u:num ?v } } GROUP BY ?v"
    ),
    "values_term_the_store_holds": (
        'SELECT ?a ?k WHERE { VALUES ?k { "k0" "absent" } ?a u:kind ?k }'
    ),
    "bind_term_the_store_holds": (
        'SELECT ?a ?l WHERE { ?a u:num ?v BIND("k0" AS ?l) ?a u:label ?l }'
    ),
    "computed_value_joined_to_a_bgp": (
        "SELECT ?a ?b WHERE { ?a u:num ?v BIND(?v + 1 AS ?w) ?b u:num ?w }"
    ),
    "select_star_over_union": (
        "SELECT * WHERE { { ?a u:num ?v } UNION { ?a u:label ?l } UNION { ?a u:missing ?z } }"
    ),
}

ORDERED = {"order_by_unbound"}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("unbound"))
    kinds = dict(_store_kinds(TRIPLES, directory))
    yield kinds
    kinds["paged"].close()


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_agrees_with_the_reference_on_every_store_kind(stores, name):
    query = PREFIX + CASES[name]
    expected = reference_answer(query, TRIPLES)
    assert expected, "each case should have an answer on this dataset"
    for kind, store in stores.items():
        for optimize in (True, False):
            rows = QueryEngine(store, optimize=optimize).query(query).rows
            if name in ORDERED:
                assert rows == expected, f"store={kind} optimize={optimize}"
            else:
                assert_same_rows(expected, rows)


def test_select_star_lists_only_variables_some_solution_binds(stores):
    query = PREFIX + CASES["select_star_over_union"]
    bound = {variable for row in reference_answer(query, TRIPLES) for variable in row}
    assert bound == {Variable("a"), Variable("v"), Variable("l")}
    for store in stores.values():
        result = QueryEngine(store).query(query)
        assert result.variables == sorted(bound, key=str)


@pytest.mark.parametrize("store_type", [MemoryStore, CrackingTripleStore, "paged"])
def test_computed_terms_never_enter_the_store_dictionary(store_type):
    queries = [
        "SELECT ?a ?d WHERE { ?a u:num ?v BIND(?v * 10 AS ?d) }",
        'SELECT ?x ?y WHERE { VALUES (?x ?y) { ("fresh" 41) (u:n0 UNDEF) } }',
        "SELECT ?k (SUM(?v) AS ?t) (AVG(?v) AS ?m) WHERE { ?a u:kind ?k . ?a u:num ?v } "
        "GROUP BY ?k",
        "SELECT (CONCAT(?k, \"!\") AS ?shout) WHERE { ?a u:kind ?k }",
    ]
    with tempfile.TemporaryDirectory() as directory:
        store = (
            PagedTripleStore.build(TRIPLES, directory) if store_type == "paged"
            else store_type(TRIPLES)
        )
        try:
            before = len(store.dictionary)
            for query in queries:
                result = QueryEngine(store).query(PREFIX + query)
                assert_same_rows(reference_answer(PREFIX + query, TRIPLES), result.rows)
            assert len(store.dictionary) == before
        finally:
            if store_type == "paged":
                store.close()


def test_shed_tier_sum_reads_computed_values_as_values():
    """A BIND-computed value is an id <= -2 in the column the shed tier
    folds: read off the term table's own value column, it sums to the
    exact answer (read as unbound, or off the end of the store's value
    column, it would not — the last store terms here are other numbers)."""
    store = MemoryStore(TRIPLES + [Triple(NODES[5], NUM, Literal(1000.5))])
    engine = QueryEngine(store)
    query = PREFIX + (
        "SELECT ?k (SUM(?d) AS ?t) WHERE { ?a u:kind ?k . ?a u:num ?v "
        "BIND(?v * 3 AS ?d) } GROUP BY ?k"
    )
    exact = {row[Variable("k")]: row[Variable("t")].value for row in engine.query(query)}
    assert exact == {Literal("k0"): 3 * (1 + 3), Literal("k1"): 3 * (2 + 4 + 1000.5)}
    answer = sketched_select(engine, query, max_rows=2)
    got = {row[Variable("k")]: row[Variable("t")].value for row in answer.result.rows}
    assert got == pytest.approx(exact)
