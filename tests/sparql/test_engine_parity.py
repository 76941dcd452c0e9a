"""Property-based parity: the engine agrees with the naive evaluator.

For randomized graphs × randomized query shapes (BGPs with shared
variables, value filters, OPTIONAL blocks, LIMIT), the engine must produce
the solution multiset of ``tests/sparql/reference.py`` — id batches are an
execution strategy, never a semantics change — over a store's own runs and
over the same store behind ``rows_only`` (the encoding adaptor). Row
*order* is not part of SPARQL semantics and differs between sources
(id-sorted vs index-iteration order), so comparisons are
order-insensitive; LIMIT without ORDER BY picks an arbitrary subset, so
those queries compare cardinalities and containment in the unlimited
result instead. ``tests/sparql/test_reference_parity.py`` is the wider
generator over every store kind.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql import QueryEngine
from repro.store import MemoryStore
from tests.helpers import assert_same_rows, rows_only
from tests.sparql.reference import reference_answer

NS = "http://parity.test/"

SUBJECTS = [IRI(NS + f"s{i}") for i in range(6)]
PREDICATES = [IRI(NS + f"p{i}") for i in range(3)]
NUMERIC = IRI(NS + "num")


def _triples() -> st.SearchStrategy[Triple]:
    link = st.builds(
        Triple,
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(SUBJECTS),
    )
    measurement = st.builds(
        Triple,
        st.sampled_from(SUBJECTS),
        st.just(NUMERIC),
        st.integers(0, 9).map(Literal),
    )
    return st.one_of(link, measurement)


_graphs = st.lists(_triples(), min_size=1, max_size=60)

_VARIABLES = ["a", "b", "c", "d"]


@st.composite
def _queries(draw) -> str:
    """A random SELECT over ?a..?d with connected patterns."""
    n_patterns = draw(st.integers(1, 3))
    used = ["a"]
    patterns = []
    for index in range(n_patterns):
        # Subjects reuse an already-introduced variable so components stay
        # connected and result sizes bounded.
        subject = "?" + (used[0] if index == 0 else draw(st.sampled_from(used)))
        predicate = draw(
            st.sampled_from(
                [t.n3() for t in PREDICATES] + [NUMERIC.n3()]
            )
        )
        if draw(st.booleans()):
            fresh = next((v for v in _VARIABLES if v not in used), None)
            if fresh is not None:
                used.append(fresh)
                obj = "?" + fresh
            else:
                obj = "?" + draw(st.sampled_from(used))
        elif draw(st.booleans()):
            obj = "?" + draw(st.sampled_from(used))
        else:
            obj = draw(
                st.one_of(
                    st.sampled_from([t.n3() for t in SUBJECTS]),
                    st.integers(0, 9).map(lambda n: str(n)),
                )
            )
        patterns.append(f"{subject} {predicate} {obj} .")
    body = " ".join(patterns)
    if draw(st.booleans()):
        threshold = draw(st.integers(0, 9))
        body += f" FILTER(?{draw(st.sampled_from(used))} > {threshold})"
    if draw(st.booleans()):
        optional_var = next((v for v in _VARIABLES if v not in used), "z")
        anchor = draw(st.sampled_from(used))
        predicate = draw(st.sampled_from([t.n3() for t in PREDICATES] + [NUMERIC.n3()]))
        body += f" OPTIONAL {{ ?{anchor} {predicate} ?{optional_var} }}"
    return f"SELECT * WHERE {{ {body} }}"


def _multiset(rows) -> Counter:
    return Counter(
        tuple(sorted((str(v), str(t)) for v, t in row.items())) for row in rows
    )


@settings(max_examples=120, deadline=None)
@given(triples=_graphs, query=_queries())
def test_engines_agree_on_solution_multisets(triples, query):
    store = MemoryStore(triples)
    expected = _multiset(reference_answer(query, triples))
    assert _multiset(QueryEngine(store).query(query).rows) == expected
    assert _multiset(QueryEngine(rows_only(store)).query(query).rows) == expected


@settings(max_examples=60, deadline=None)
@given(triples=_graphs, query=_queries(), limit=st.integers(1, 10))
def test_engines_agree_under_limit(triples, query, limit):
    store = MemoryStore(triples)
    unlimited = _multiset(reference_answer(query, triples))
    limited = _multiset(
        QueryEngine(store)
        .query(f"{query} LIMIT {limit}")
        .rows
    )
    assert sum(limited.values()) == min(limit, sum(unlimited.values()))
    # Every limited row must come from the full result (with multiplicity).
    assert not limited - unlimited


@settings(max_examples=40, deadline=None)
@given(triples=_graphs, query=_queries())
def test_engines_agree_on_distinct(triples, query):
    store = MemoryStore(triples)
    distinct_query = query.replace("SELECT *", "SELECT DISTINCT *", 1)
    expected = _multiset(reference_answer(distinct_query, triples))
    assert _multiset(QueryEngine(store).query(distinct_query).rows) == expected
    assert _multiset(
        QueryEngine(rows_only(store)).query(distinct_query).rows
    ) == expected


# ---------------------------------------------------------------------------
# Listings: Project / Slice continue the id batches (issue 19)
# ---------------------------------------------------------------------------
#
# ``SELECT vars … [OFFSET o] [LIMIT k]`` over one BGP leaves the engine as
# id batches. The reference is the *same* operator tree run through its row
# forms (``execute``: the BGP's row adaptor, then Project / Slice row by
# row), so the BGP order is the same and the answers must agree as
# sequences, not just as multisets.

from unittest import mock

from repro.sparql import vectorized
from repro.sparql.optimizer import CardinalityEstimator
from repro.sparql.parser import parse_query
from repro.sparql.physical import EvalStats, build_plan
from repro.sparql.plan import build_select_plan, optimize_plan


@st.composite
def _listings(draw) -> tuple[str, int, int | None]:
    """A BGP-only SELECT of plain variables, and an OFFSET / LIMIT for it."""
    star = draw(_queries().filter(lambda query: "OPTIONAL" not in query))
    mentioned = [v for v in _VARIABLES if f"?{v}" in star]
    projected = draw(
        st.lists(st.sampled_from(mentioned + ["unbound"]), min_size=1, max_size=4)
    )
    query = star.replace("SELECT *", "SELECT " + " ".join(f"?{v}" for v in projected), 1)
    return query, draw(st.integers(0, 12)), draw(st.none() | st.integers(0, 12))


def _rows_through_the_row_forms(store, query):
    root = build_plan(
        optimize_plan(build_select_plan(parse_query(query))),
        store,
        EvalStats(),
        CardinalityEstimator.for_store(store),
    )
    assert root.batch_dictionary() is not None  # the shape under test
    return list(root.execute({}))


@settings(max_examples=150, deadline=None)
@given(triples=_graphs, listing=_listings())
def test_listings_through_id_batches_are_the_row_forms_sequence(triples, listing):
    query, offset, limit = listing
    window = (f" OFFSET {offset}" if offset else "") + (
        "" if limit is None else f" LIMIT {limit}"
    )
    store = MemoryStore(triples)
    # 2-row first batches: the windows cut inside and between batches
    with mock.patch.object(vectorized, "FIRST_BATCH_SIZE", 2):
        unlimited = QueryEngine(store).query(query).rows
        windowed = QueryEngine(store).query(query + window).rows
        assert unlimited == _rows_through_the_row_forms(store, query)
        assert windowed == _rows_through_the_row_forms(store, query + window)
    stop = None if limit is None else offset + limit
    assert windowed == unlimited[offset:stop]
    # and the naive evaluator agrees on what the rows are
    assert _multiset(unlimited) == _multiset(reference_answer(query, triples))


# ---------------------------------------------------------------------------
# Chart-shaped queries: id-space FILTER → batch GROUP BY / aggregates / top-k
# ---------------------------------------------------------------------------
#
# The batch operators above the BGP answer from id columns and the
# dictionary's numeric value column; the naive evaluator is the reference,
# over the store's own runs and, through ``rows_only``, over the scratch
# dictionary of the encoding adaptor. Per example the numeric predicate is all-int, all-double,
# mixed int+double or mixed numeric+string (the last must fall back to row
# semantics batch by batch), and one pattern variant binds the value
# through OPTIONAL (partly unbound: must stay on the row operators).

import tempfile

import pytest

from repro.store import CrackingTripleStore, PagedTripleStore

CAT = IRI(NS + "cat")
KIND = IRI(NS + "kind")
CLASSES = [IRI(NS + f"c{i}") for i in range(3)]

_INTS = st.integers(-3, 6).map(Literal)
# n/2 + 0.25 is never an integer, so a MIN/MAX tie between an int and a
# double — whose datatype depends on row order in *both* engines — cannot
# occur, and every sum is exact in binary.
_DOUBLES = st.integers(-6, 12).map(lambda n: Literal(n / 2 + 0.25))
_STRINGS = st.sampled_from(["a", "7", "zz"]).map(Literal)
_VALUE_MODES = {
    "int": _INTS,
    "double": _DOUBLES,
    "int+double": st.one_of(_INTS, _DOUBLES),
    "numeric+string": st.one_of(_INTS, _DOUBLES, _STRINGS),
}


@st.composite
def _chart_graphs(draw) -> list[Triple]:
    values = _VALUE_MODES[draw(st.sampled_from(sorted(_VALUE_MODES)))]
    triples: list[Triple] = []
    for subject in SUBJECTS[: draw(st.integers(0, 6))]:
        for cls in draw(st.lists(st.sampled_from(CLASSES), max_size=2, unique=True)):
            triples.append(Triple(subject, CAT, cls))
        if draw(st.booleans()):
            triples.append(
                Triple(subject, KIND, Literal(draw(st.sampled_from(["k0", "k1"]))))
            )
        for value in draw(st.lists(values, max_size=3)):
            triples.append(Triple(subject, NUMERIC, value))
    return triples


_CONSTANTS = ["-1", "2", "2.25", "3.5", "1e0"]
_FILTERS = (
    [f"?v {op} {c}" for op in ("<", "<=", ">", ">=", "=", "!=") for c in _CONSTANTS]
    + [
        f"?c IN ({CLASSES[0].n3()}, {CLASSES[2].n3()})",
        "?v IN (2, 2.25, -1)",
        f"?c = {CLASSES[1].n3()}",
        f"?c != {CLASSES[1].n3()}",
        "?v > -1 && ?v <= 3.5",
        f"?v >= 0 && ?c != {CLASSES[0].n3()}",
        "?v > 1000",  # empty input
        '?v < "b"',  # string ordering: row semantics
    ]
)
_AGGREGATES = [
    "(COUNT(*) AS ?n)",
    "(COUNT(?s) AS ?ns)",
    "(COUNT(DISTINCT ?v) AS ?nd)",
    "(SUM(?v) AS ?sum)",
    "(AVG(?v) AS ?avg)",
    "(MIN(?v) AS ?lo)",
    "(MAX(?v) AS ?hi)",
]


@st.composite
def _chart_patterns(draw) -> tuple[str, list[str]]:
    """A WHERE body over ?s ?c ?v (and maybe ?d) and its group-able vars."""
    if draw(st.integers(0, 4)) == 0:  # ?v partly unbound
        body = f"?s {CAT.n3()} ?c OPTIONAL {{ ?s {NUMERIC.n3()} ?v }}"
        keys = ["c"]
    else:
        body = f"?s {CAT.n3()} ?c . ?s {NUMERIC.n3()} ?v ."
        keys = ["c"]
        if draw(st.booleans()):
            body += f" ?s {KIND.n3()} ?d ."
            keys.append("d")
    if draw(st.booleans()):
        body += f" FILTER({draw(st.sampled_from(_FILTERS))})"
    return body, keys


@st.composite
def _aggregate_queries(draw) -> str:
    body, keys = draw(_chart_patterns())
    group = draw(st.sampled_from([[], keys[:1], keys]))
    aggregates = draw(
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=4, unique=True)
    )
    head = " ".join([f"?{k}" for k in group] + aggregates)
    tail = " GROUP BY " + " ".join(f"?{k}" for k in group) if group else ""
    return f"SELECT {head} WHERE {{ {body} }}{tail}"


def _memory(triples, _directory):
    return MemoryStore(triples)


def _cracking(triples, _directory):
    store = CrackingTripleStore()
    for triple in triples:
        store.add(triple)
    return store


def _paged(triples, directory):
    return PagedTripleStore.build(triples, directory)


_STORES = pytest.mark.parametrize(
    "make_store", [_memory, _cracking, _paged], ids=["memory", "cracking", "paged"]
)


def _both_engines(make_store, triples, query):
    """``(reference rows, engine rows)``; the engine's rows are also what it
    answers over the same store behind the encoding adaptor."""
    with tempfile.TemporaryDirectory() as directory:
        store = make_store(triples, directory)
        try:
            rows = QueryEngine(store).query(query).rows
            adapted = QueryEngine(rows_only(store)).query(query).rows
        finally:
            close = getattr(store, "close", None)
            if close is not None:
                close()
    if " ORDER BY " in query:  # ties aside, one sequence of sort values
        assert [row.get("v") for row in adapted] == [row.get("v") for row in rows]
    else:
        assert_same_rows(rows, adapted)
    return reference_answer(query, triples), rows


@_STORES
@settings(max_examples=80, deadline=None)
@given(triples=_chart_graphs(), query=_aggregate_queries())
def test_batch_aggregates_match_the_iterator_reference(make_store, triples, query):
    reference, batch = _both_engines(make_store, triples, query)
    assert_same_rows(reference, batch)


@_STORES
@settings(max_examples=60, deadline=None)
@given(
    triples=_chart_graphs(),
    pattern=_chart_patterns(),
    descending=st.booleans(),
    k=st.integers(1, 6),
)
def test_top_k_matches_the_iterator_reference(
    make_store, triples, pattern, descending, k
):
    body, _keys = pattern
    order = "DESC(?v)" if descending else "?v"
    full_query = f"SELECT ?s ?v WHERE {{ {body} }}"
    query = f"{full_query} ORDER BY {order} LIMIT {k}"
    reference, batch = _both_engines(make_store, triples, query)
    # Rows tied on ?v may differ in ?s, but the sequence of sort values is
    # fixed by the ordering, ties with the k-th included.
    assert [row.get("v") for row in reference] == [row.get("v") for row in batch]
    everything, _ = _both_engines(make_store, triples, full_query)
    assert not _multiset(batch) - _multiset(everything)
