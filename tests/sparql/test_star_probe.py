"""A star join on ``MemoryStore``: a gather through the predicate's
adjacency, never the generic per-key ``probe_ids_of``, the rows and their
order those of the encoding adaptor (which probes key by key); and
COUNT(DISTINCT) without ``np.unique``."""

import numpy as np
import pytest

from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql import QueryEngine
from repro.store import MemoryStore, base
from tests.helpers import rows_only

EX = "http://example.org/"
RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
SUBJECTS = 1_200
PREFIX = f"PREFIX ex: <{EX}> "
SINGLE = PREFIX + "SELECT ?s ?v ?w WHERE { ?s a ex:C . ?s ex:p ?v . ?s ex:q ?w }"
MULTI = PREFIX + "SELECT ?s ?t ?v WHERE { ?s a ex:C . ?s ex:linksTo ?t . ?s ex:p ?v }"
LACKING = PREFIX + "SELECT ?s ?r ?v WHERE { ?s a ex:C . ?s ex:r ?r . ?s ex:p ?v }"
OBJECT = PREFIX + "SELECT ?s ?r ?p WHERE { ?s ex:r ?r . ?s ?p ex:C }"


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture(scope="module")
def store():
    """Every subject is a ``C`` (added first, so the encoding adaptor
    numbers the subjects in the native store's order) with one ``p`` and
    one ``q`` value; each links to the next subject, one of them to two;
    every third has an ``r``, every fifth also ``likes`` ``C``."""
    built = MemoryStore()
    for index in range(SUBJECTS):
        built.add(Triple(ex(f"s{index}"), RDF_TYPE, ex("C")))
    for index in range(SUBJECTS):
        subject = ex(f"s{index}")
        built.add(Triple(subject, ex("p"), Literal(index)))
        built.add(Triple(subject, ex("q"), Literal(f"q{index % 17}")))
        built.add(Triple(subject, ex("linksTo"), ex(f"s{(index + 1) % SUBJECTS}")))
        if index % 3 == 0:
            built.add(Triple(subject, ex("r"), Literal(index * 2)))
        if index % 5 == 0:
            built.add(Triple(subject, ex("likes"), ex("C")))
    built.add(Triple(ex("s40"), ex("linksTo"), ex("s45")))
    return built


@pytest.fixture
def spied(monkeypatch):
    """Calls of the generic per-key probe, ``probe_ids_of``."""
    calls = {"probe_ids_of": 0}
    real = base.probe_ids_of

    def spy(*args, **kwargs):
        calls["probe_ids_of"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(base, "probe_ids_of", spy)
    return calls


def listing(source, query, rows=None, seed=0):
    """Decoded rows of ``query`` in delivery order, its BGP asked for a
    ``rows``-row first-stage sample when given."""
    stream = QueryEngine(source).stream_select(query)
    if rows is not None:
        stream.root.children[0].sample_first_stage(rows, seed)
    return list(stream.rows)


def per_key(store, query, rows=None, seed=0):
    """The same listing through the encoding adaptor, whose ``probe_ids``
    is the generic per-key ``probe_ids_of``."""
    return listing(rows_only(store), query, rows, seed)


@pytest.mark.parametrize(
    "query, solutions",
    [(SINGLE, SUBJECTS), (MULTI, SUBJECTS + 1), (LACKING, SUBJECTS // 3)],
    ids=["single-valued", "one-multi-valued-key", "lacking-keys"],
)
def test_star_rows_and_order_match_the_per_key_path(store, spied, query, solutions):
    expected = per_key(store, query)
    assert spied["probe_ids_of"] > 0
    spied.update(dict.fromkeys(spied, 0))
    assert listing(store, query) == expected
    assert len(expected) == solutions
    assert spied == {"probe_ids_of": 0}


def test_the_multi_valued_key_expands_in_place(store):
    rows = listing(store, MULTI)
    s40 = [row[Variable("t")] for row in rows if row[Variable("s")] == ex("s40")]
    assert s40 == [ex("s41"), ex("s45")]
    at = next(i for i, row in enumerate(rows) if row[Variable("s")] == ex("s40"))
    assert rows[at + 1][Variable("s")] == ex("s40")


def test_a_star_bound_on_the_object(store, spied, monkeypatch):
    """``?s ?p ex:C`` after ``?s`` is bound: the probe's fixed id is an
    object, whose adjacency is built for the call and not kept."""
    expected = per_key(store, OBJECT)
    spied.update(dict.fromkeys(spied, 0))
    shapes = []
    real = store.probe_ids

    def probe_ids(s, p, o, key_positions, keys, value_positions):
        shapes.append((s is None, p is None, o is None, key_positions, value_positions))
        return real(s, p, o, key_positions, keys, value_positions)

    monkeypatch.setattr(store, "probe_ids", probe_ids)
    kept = set(store._generation.adjacency)
    assert listing(store, OBJECT) == expected
    assert len(expected) == SUBJECTS // 3 + SUBJECTS // 15
    assert shapes and set(shapes) == {(True, True, False, (0,), (1,))}
    assert set(store._generation.adjacency) == kept
    assert spied == {"probe_ids_of": 0}


@pytest.mark.parametrize("query", [SINGLE, MULTI, LACKING])
def test_a_sampled_first_stage_rides_through(store, spied, query):
    expected = per_key(store, query, rows=100, seed=9)
    spied.update(dict.fromkeys(spied, 0))
    assert listing(store, query, rows=100, seed=9) == expected
    assert 0 < len(expected) <= 101
    assert spied == {"probe_ids_of": 0}


@pytest.mark.parametrize("query", [SINGLE, MULTI, LACKING])
def test_a_streamed_limit_listing_is_a_prefix(store, spied, query):
    limited = query + " LIMIT 37"
    expected = per_key(store, limited)
    spied.update(dict.fromkeys(spied, 0))
    assert listing(store, limited) == expected == listing(store, query)[:37]
    assert spied == {"probe_ids_of": 0}


def test_count_distinct_sorts_instead_of_calling_np_unique(store, monkeypatch):
    query = PREFIX + "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s ex:linksTo ?t }"
    expected = QueryEngine(rows_only(store)).query(query).rows
    calls = []
    real = np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    rows = QueryEngine(store).query(query).rows
    assert rows == expected and rows[0][Variable("n")].value == SUBJECTS
    # The implicit group over no rows counts zero distinct ids.
    nothing = query.replace("ex:linksTo", "ex:neverUsed")
    assert QueryEngine(store).query(nothing).rows[0][Variable("n")].value == 0
    assert not calls
