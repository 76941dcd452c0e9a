"""Every store kind, one executor, one oracle.

Seeded Hypothesis parity of the engine against the naive evaluator
(``tests/sparql/reference.py``): small graphs and the query shapes the BGP
executor has to get right on its single pipeline — stars with two or more
constraint-only patterns (the existence mask), chains, a triangle, a
variable repeated inside one pattern — under FILTERs, one OPTIONAL, one
UNION, the aggregates with and without GROUP BY, and ``LIMIT`` only under
a total ``ORDER BY`` (any other window is arbitrary). Each example runs
over a store with its own id runs (memory, cracking, paged) and over the
encoding adaptor (plain ``Graph``, ``rows_only``, a two-member federation
whose halves overlap), with ``optimize`` on and off.

The capture list of PR 18 (the ten served templates, one query per group
construct and query form, plus the triangle) additionally runs over a
``RemoteEndpointSource`` on loopback: the same adaptor, one HTTP request
per probe.

CI runs this file with ``--hypothesis-seed=0``. A bug it finds lands here
as a plain test of its shrunk case (none so far: eight seeds and one
3,000-example run came back clean when the suite was written).
"""

import tempfile

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.rdf import Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.server.remote import RemoteEndpointSource
from repro.sparql import QueryEngine
from repro.store import (
    CrackingTripleStore,
    FederatedStore,
    MemoryStore,
    PagedTripleStore,
)
from tests.helpers import assert_same_rows, e2e_triples, rows_only
from tests.sparql.reference import reference_answer

NS = "http://parity.test/"
# Few enough terms that stars, chains and triangles find solutions.
NODES = [IRI(NS + f"n{i}") for i in range(4)]
CLASSES = [IRI(NS + f"c{i}") for i in range(2)]
KINDS = [Literal(f"k{i}") for i in range(2)]
LINK, TAG, KIND, NUM = (IRI(NS + name) for name in ("link", "tag", "kind", "num"))

# n / 2 + 0.25 is never an integer: MIN / MAX cannot tie between an int and
# a double (whose datatype would depend on row order), and sums are exact.
_NUMBERS = st.one_of(
    st.integers(-3, 6).map(Literal),
    st.integers(-6, 12).map(lambda n: Literal(n / 2 + 0.25)),
)
_VALUES = st.one_of(_NUMBERS, _NUMBERS, st.sampled_from(["7", "zz"]).map(Literal))
_nodes = st.sampled_from(NODES)
_graphs = st.lists(
    st.one_of(
        st.builds(Triple, _nodes, st.just(LINK), _nodes),
        st.builds(Triple, _nodes, st.just(TAG), st.sampled_from(CLASSES)),
        st.builds(Triple, _nodes, st.just(KIND), st.sampled_from(KINDS)),
        st.builds(Triple, _nodes, st.just(NUM), _VALUES),
    ),
    min_size=12, max_size=60,
)


def _n3(strategy):
    return strategy.map(lambda term: term.n3())


_class, _kind, _node = _n3(st.sampled_from(CLASSES)), _n3(st.sampled_from(KINDS)), _n3(_nodes)


@st.composite
def _bgps(draw) -> tuple[str, list[str], bool]:
    """``(patterns, node-valued variables, binds ?v)`` of a 1-4 pattern BGP."""
    link, tag, kind, num = LINK.n3(), TAG.n3(), KIND.n3(), NUM.n3()
    shape = draw(st.sampled_from(["star", "chain", "triangle", "repeated", "mixed"]))
    value = draw(st.booleans())
    if shape == "star":  # two or three constraint-only patterns around ?a
        constraints = [f"?a {tag} {draw(_class)} .", f"?a {kind} {draw(_kind)} ."]
        if draw(st.booleans()):
            constraints.append(f"?a {link} {draw(_node)} .")
        expansion = draw(st.sampled_from(["", f"?a {link} ?b .", f"?b {link} ?a ."]))
        patterns = draw(st.permutations(constraints + ([expansion] if expansion else [])))
        nodes = ["a", "b"] if expansion else ["a"]
        value = value and len(patterns) < 4
    elif shape == "chain":
        patterns = [f"?a {link} ?b .", f"?b {link} ?c ."]
        nodes = ["a", "b", "c"]
        if draw(st.booleans()):
            patterns.append(f"?c {tag} {draw(_class)} .")
    elif shape == "triangle":
        patterns = [f"?a {link} ?b .", f"?b {link} ?c .", f"?c {link} ?a ."]
        nodes = ["a", "b", "c"]
    elif shape == "repeated":
        patterns, nodes = [f"?a {link} ?a ."], ["a"]
        if draw(st.booleans()):
            patterns.append(f"?a {tag} {draw(_class)} .")
    else:  # a predicate variable, a bound subject, a duplicated pattern
        patterns = draw(st.lists(st.sampled_from([
            "?a ?p ?b .", f"{draw(_node)} {link} ?a .", f"?a {link} ?b .",
            f"?a {link} ?b .", f"?a {kind} {draw(_kind)} .",
        ]), min_size=1, max_size=3))
        nodes = ["a"]
    if value:
        patterns = list(patterns) + [f"?a {num} ?v ."]
    return " ".join(patterns), nodes, value


_COMPARISONS = [f"?v {op} {c}" for op in ("<", "<=", ">", ">=", "=", "!=")
                for c in ("-1", "2", "2.25", "1e0")]


@st.composite
def _patterns(draw) -> tuple[str, list[str], list[str]]:
    """``(WHERE body, certain variables, possible variables)``."""
    body, nodes, value = draw(_bgps())
    certain = nodes + ["v"] * value
    possible = list(certain)
    filters = [f"?{draw(st.sampled_from(nodes))} {draw(st.sampled_from(['=', '!=']))} {draw(_node)}",
               f"?{draw(st.sampled_from(nodes))} IN ({draw(_node)}, {draw(_node)})"]
    if value:
        filters += [draw(st.sampled_from(_COMPARISONS)), "?v IN (2, 2.25, -1)",
                    f"?v > 0 && ?a != {draw(_node)}"]
    if draw(st.booleans()):
        body += f" FILTER({draw(st.sampled_from(filters))})"
    if draw(st.integers(0, 2)) == 0:  # one OPTIONAL, its FILTER on its own variable
        inner = draw(st.sampled_from([
            f"?a {NUM.n3()} ?w", f"?a {NUM.n3()} ?w FILTER(?w > 1)",
            f"?a {LINK.n3()} ?x . ?x {KIND.n3()} ?w",
        ]))
        body += f" OPTIONAL {{ {inner} }}"
        possible.append("w")
    if draw(st.integers(0, 2)) == 0:  # one UNION, joined before or after the BGP
        union = (f"{{ ?a {KIND.n3()} {draw(_kind)} }} UNION "
                 f"{{ ?a {TAG.n3()} {draw(_class)} . ?a {KIND.n3()} ?u }}")
        body = f"{union} {body}" if draw(st.booleans()) else f"{body} {union}"
        possible.append("u")
    return body, certain, possible


@st.composite
def _queries(draw) -> str:
    body, certain, possible = draw(_patterns())
    if draw(st.integers(0, 2)) == 0:
        argument = draw(st.sampled_from([v for v in possible if v in ("v", "w")] or ["a"]))
        aggregates = draw(st.lists(st.sampled_from([
            "(COUNT(*) AS ?n)", f"(COUNT(?{argument}) AS ?nv)",
            f"(COUNT(DISTINCT ?{argument}) AS ?nd)", f"(SUM(?{argument}) AS ?sum)",
            f"(AVG(?{argument}) AS ?avg)", f"(MIN(?{argument}) AS ?lo)",
            f"(MAX(?{argument}) AS ?hi)",
        ]), min_size=1, max_size=3, unique=True))
        keys = draw(st.lists(
            st.sampled_from([v for v in possible if v != argument] or ["a"]),
            max_size=2, unique=True,
        ))
        head = " ".join([f"?{k}" for k in keys] + aggregates)
        group = " GROUP BY " + " ".join(f"?{k}" for k in keys) if keys else ""
        return f"SELECT {head} WHERE {{ {body} }}{group}"
    projected = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=3, unique=True))
    head = ("DISTINCT " if draw(st.booleans()) else "") + " ".join(f"?{v}" for v in projected)
    query = f"SELECT {head} WHERE {{ {body} }}"
    if draw(st.booleans()):
        # A total order over the projected row, so the window is one multiset.
        order = " ".join(
            f"DESC(?{v})" if draw(st.booleans()) else f"?{v}"
            for v in draw(st.permutations(projected))
        )
        query += f" ORDER BY {order} LIMIT {draw(st.integers(1, 8))}"
        if draw(st.booleans()):
            query += f" OFFSET {draw(st.integers(1, 4))}"
    return query


def _store_kinds(triples, directory):
    """Every way a query can reach ``triples``: three native id-scan stores
    and three sources behind the encoding adaptor."""
    third = len(triples) // 3
    yield "memory", MemoryStore(triples)
    yield "cracking", CrackingTripleStore(triples)
    yield "paged", PagedTripleStore.build(triples, directory)
    yield "graph", Graph(triples)
    yield "rows_only", rows_only(MemoryStore(triples))
    yield "federated", FederatedStore([  # the middle third is in both members
        ("left", MemoryStore(triples[: 2 * third + 1])), ("right", Graph(triples[third:])),
    ])


def _assert_matches_reference(triples, query):
    expected = reference_answer(query, triples)
    with tempfile.TemporaryDirectory() as directory:
        for kind, store in _store_kinds(triples, directory):
            try:
                for optimize in (True, False):
                    note(f"store={kind} optimize={optimize}")
                    rows = QueryEngine(store, optimize=optimize).query(query).rows
                    assert_same_rows(expected, rows)
            finally:
                if kind == "paged":
                    store.close()


@settings(max_examples=300, deadline=None)
@given(triples=_graphs, query=_queries())
def test_every_store_kind_answers_what_the_reference_answers(triples, query):
    _assert_matches_reference(triples, query)


# -- the capture list ---------------------------------------------------------

_PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

CAPTURE = {
    # the ten templates benchmarks/e2e serves
    "point": "SELECT ?p ?o WHERE { ex:entity7 ?p ?o }",
    "twohop": "SELECT ?m ?l WHERE { ex:entity7 ex:linksTo ?n . ?n ex:linksTo ?m . "
              "?m rdfs:label ?l }",
    "star": "SELECT ?s ?l ?v ?c WHERE { ?s rdf:type ex:Class1 . ?s rdfs:label ?l . "
            "?s ex:numeric0 ?v . ?s ex:category1 ?c . FILTER(?v > 36.052) } LIMIT 20",
    "page": "SELECT ?s ?l ?v WHERE { ?s rdf:type ex:Class2 . ?s rdfs:label ?l . "
            "?s ex:numeric1 ?v . FILTER(?v > 95.5) } LIMIT 2000",
    "gb_all": "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
              "?s ex:category0 ?c . ?s ex:numeric1 ?v . FILTER(?v < 113.278) } GROUP BY ?c",
    "gb_class": "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
                "?s rdf:type ex:Class1 . ?s ex:category1 ?c . ?s ex:numeric0 ?v . "
                "FILTER(?v > 45.3) } GROUP BY ?c",
    "facet": "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s ex:category0 ?o . "
             "?s ex:numeric0 ?v . FILTER(?v < 55.1) } GROUP BY ?o",
    "count_distinct": "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s rdf:type ex:Class1 . "
                      "?s ex:linksTo ?t . ?s ex:numeric1 ?v . FILTER(?v > 90.25) }",
    "avg": "SELECT (AVG(?v) AS ?mean) (COUNT(?s) AS ?n) WHERE { ?s rdf:type ex:Class1 . "
           "?s ex:numeric0 ?v . FILTER(?v < 54.0) }",
    "topk": "SELECT ?s ?v WHERE { ?s rdf:type ex:Class1 . ?s ex:numeric0 ?v . "
            "FILTER(?v > 45.323) } ORDER BY DESC(?v) LIMIT 20",
    # one query per form and per group construct
    "describe": "DESCRIBE ex:entity7",
    "ask": "ASK { ?s ex:linksTo ex:entity0 . ?s rdf:type ex:Class0 }",
    "construct": "CONSTRUCT { ?t ex:linkedFrom ?s } WHERE { ?s ex:linksTo ?t . "
                 "?s rdf:type ex:Class2 }",
    "optional": "SELECT ?s ?l ?v WHERE { ?s rdfs:label ?l "
                "OPTIONAL { ?s ex:numeric0 ?v FILTER(?v > 50) } }",
    "union": "SELECT ?s ?x WHERE { { ?s ex:category0 ?x } UNION { ?s ex:category1 ?x } "
             "?s rdf:type ex:Class1 }",
    "bind": "SELECT ?s ?d WHERE { ?s ex:numeric0 ?v BIND(?v * 2 AS ?d) "
            "?s rdf:type ex:Class0 FILTER(?d > 90) }",
    "values": "SELECT ?s ?l WHERE { VALUES ?s { ex:entity1 ex:entity2 } ?s rdfs:label ?l }",
    "nested_group": "SELECT ?s ?v WHERE { ?s rdf:type ex:Class2 "
                    "{ ?s ex:numeric1 ?v FILTER(?v < 100) } }",
    "sibling_filters": "SELECT ?s WHERE { FILTER(?v > 40) ?s ex:numeric0 ?v . "
                       'FILTER(?v < 60 && ?c != "value0_0") ?s ex:category0 ?c }',
    "two_components": "SELECT ?a ?b WHERE { ?a rdf:type ex:Class0 . ?a ex:numeric0 ?v . "
                      "?b rdf:type ex:Class1 . ?b ex:numeric0 ?w . "
                      "FILTER(?v > 50) FILTER(?v < ?w) }",
    "triangle": "SELECT ?a ?b ?c WHERE { ?a ex:linksTo ?b . ?b ex:linksTo ?c . "
                "?c ex:linksTo ?a }",
}


@pytest.fixture(scope="module")
def capture_stores(tmp_path_factory):
    triples = e2e_triples(40)
    directory = str(tmp_path_factory.mktemp("capture"))
    stores = dict(_store_kinds(triples, directory))
    with ReproServer(MemoryStore(triples), ServerConfig(workers=2)) as server:
        stores["remote"] = RemoteEndpointSource(server.base_url)
        yield triples, stores
    stores["paged"].close()


def test_capture_list_is_21_queries():
    assert len(CAPTURE) == 21


@pytest.mark.parametrize("name", sorted(CAPTURE))
def test_capture_agrees_with_the_reference_on_every_store_kind(capture_stores, name):
    triples, stores = capture_stores
    query = _PREFIXES + CAPTURE[name]
    expected = reference_answer(query, triples)
    if name not in ("ask", "triangle"):
        assert expected, "the capture query should have an answer on this dataset"
    for kind, store in stores.items():
        for optimize in (True, False):
            answer = QueryEngine(store, optimize=optimize).query(query)
            where = f"store={kind} optimize={optimize}"
            if isinstance(expected, bool):
                assert answer is expected, where
            elif isinstance(expected, set):
                assert set(answer.triples()) == expected, where
            else:
                assert_same_rows(expected, answer.rows)
