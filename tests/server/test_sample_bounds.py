"""The shed tier's stated bound is true — on data ordered against it.

The parent's tier read a prefix of a sorted run (one category) and scaled
by a planner estimate: 0.82 of its values lay outside the bound it stated.
These tests hold the one path that replaced it to its word, on the data
the served-request benchmark generates (group correlated with index
order) and on a store where the group *is* a function of the subject id —
that one also behind ``rows_only`` (the encoding adaptor: a draw over the
positions of the scan where there used to be a prefix of it) and under a
cyclic BGP (which used to have no first stage to draw from).
"""

import random

import pytest

from repro.approx.sketch import HllSketch, default_precision
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.server.approximate import approximate_select
from repro.server.sketch import (
    _term_key,
    build_sketch_bundle,
    sketched_select,
)
from repro.sparql.eval import QueryEngine
from repro.sparql.parser import parse_query
from repro.store.memory import MemoryStore
from repro.workload.rdf_graphs import EX, powerlaw_link_graph, typed_entities
from tests.helpers import rows_only

PREFIXES = (
    f"PREFIX ex: <{EX}> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
ENTITIES = 3_000
BUDGET = 300
CONFIDENCE = 0.95


@pytest.fixture(scope="module")
def benchmark_like():
    """``typed_entities`` plus two out-links each, as benchmarks/e2e
    generates its dataset."""
    store = MemoryStore(typed_entities(
        ENTITIES, n_classes=6, numeric_properties=2,
        categorical_properties=2, seed=7,
    ))
    store.add_all(powerlaw_link_graph(
        ENTITIES, 2, 8, node_factory=lambda index: EX[f"entity{index}"],
    ))
    return store


def item(index: int) -> IRI:
    return IRI(f"http://example.org/item/{index % ENTITIES:05d}")


@pytest.fixture(scope="module")
def ordered_by_group():
    """Subjects in blocks: block, value and subject id all rise together,
    so any prefix of any run is one group and the low values. Each item
    links to the next two, so ``?s next ?t . ?s next ?u . ?t next ?u`` is
    a cycle among the variables with one solution per item."""
    store = MemoryStore()
    for index in range(ENTITIES):
        subject = item(index)
        block = index * 5 // ENTITIES
        store.add(Triple(subject, EX["block"], Literal(f"block{block}")))
        store.add(Triple(subject, EX["value"], Literal(float(index % 977 + block))))
        store.add(Triple(subject, EX["next"], item(index + 1)))
        store.add(Triple(subject, EX["next"], item(index + 2)))
    return store


def queries(rng: random.Random, which: str):
    """(query text) draws; each threshold gives the plan another digest,
    hence another sample."""
    if which == "benchmark":
        x0 = round(rng.uniform(44, 56), 3)
        x1 = round(rng.uniform(88, 112), 3)
        a = rng.randrange(2)
        yield PREFIXES + (  # grouped COUNT + AVG, the scan first stage
            f"SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE {{ "
            f"?s ex:category{a} ?c . ?s ex:numeric0 ?v . "
            f"FILTER(?v > {x0}) }} GROUP BY ?c"
        )
        yield PREFIXES + (  # the same under a class
            f"SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE {{ "
            f"?s rdf:type ex:Class0 . ?s ex:category{a} ?c . "
            f"?s ex:numeric1 ?v . FILTER(?v < {x1}) }} GROUP BY ?c"
        )
        yield PREFIXES + (  # ungrouped AVG + COUNT
            f"SELECT (AVG(?v) AS ?mean) (COUNT(?s) AS ?n) WHERE {{ "
            f"?s rdf:type ex:Class1 . ?s ex:numeric0 ?v . "
            f"FILTER(?v < {x0}) }}"
        )
        yield PREFIXES + (  # SUM, grouped by class
            f"SELECT ?k (SUM(?v) AS ?total) WHERE {{ ?s rdf:type ?k . "
            f"?s ex:numeric1 ?v . FILTER(?v > {x1}) }} GROUP BY ?k"
        )
        yield PREFIXES + (  # two links per centre: fan-out 2
            f"SELECT (COUNT(?t) AS ?n) WHERE {{ ?s rdf:type ex:Class0 . "
            f"?s ex:linksTo ?t . ?s ex:numeric0 ?v . FILTER(?v > {x0}) }}"
        )
    else:
        x = round(rng.uniform(200, 800), 3)
        cycle = "?s ex:next ?t . ?s ex:next ?u . ?t ex:next ?u . "
        yield PREFIXES + (
            f"SELECT ?b (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) "
            f"(SUM(?v) AS ?total) WHERE {{ ?s ex:block ?b . ?s ex:value ?v . "
            f"{cycle if which == 'cyclic' else ''}"
            f"FILTER(?v < {x}) }} GROUP BY ?b"
        )


def outcomes(engine, text, population=None):
    """Per (group, aggregate) of one answer: was the estimate inside the
    stated halfwidth; plus the real groups with a share >= 5 % it lacks.
    ``population`` is the first stage's length where the test knows it."""
    parsed = parse_query(text)
    exact = engine.query(parsed)
    # (the two entry points the parent had, so this runs there too)
    answer = (sketched_select if parsed.group_by else approximate_select)(
        engine, parsed, max_rows=BUDGET, confidence=CONFIDENCE
    )
    assert answer.approximate and answer.method == "sketch"
    assert answer.rows_consumed == BUDGET < answer.estimated_total
    assert population in (None, answer.estimated_total)  # N is read, not guessed
    assert f"sample={BUDGET}/{answer.estimated_total}" in answer.result.plan.render()
    keys = [expression.variable for expression in parsed.group_by]
    aggregates = [v for v in exact.variables if v not in keys]

    def by_group(result):
        return {tuple(row.get(k) for k in keys): row for row in result.rows}

    truth, got = by_group(exact), by_group(answer.result)
    assert set(got) <= set(truth)  # only real groups
    inside = []
    for key, row in got.items():
        for alias in aggregates:
            error = abs(row[alias].value - truth[key][alias].value)
            # half a unit: counts are rounded to integers
            inside.append(error <= answer.bounds[str(alias)] + 0.5)
    count, missing = Variable("n"), []
    if count in aggregates:
        total = sum(row[count].value for row in truth.values())
        missing = [key for key, row in truth.items()
                   if key not in got and row[count].value >= 0.05 * total]
    return inside, missing


@pytest.mark.parametrize("which", ["benchmark", "ordered", "rows_only", "cyclic"])
def test_stated_bounds_cover_at_the_stated_confidence(
    which, benchmark_like, ordered_by_group
):
    """320 (query, threshold) draws in all, 0.02 of the estimates outside
    their bound. Two PRs back 0.90 of the ``ordered`` ones were, and the
    ``benchmark`` answers failed the frame check before that (the planner
    estimate they scaled by was below the prefix already read); one PR
    back ``rows_only`` was that prefix still (``sketch-prefix``) and
    ``cyclic`` was drained, never sampled."""
    draws = 40
    store = benchmark_like if which == "benchmark" else ordered_by_group
    engine = QueryEngine(rows_only(store) if which == "rows_only" else store)
    # block and value patterns tie at one row per item; either is scanned
    population = None if which == "benchmark" else ENTITIES
    rng = random.Random(20)
    inside, answers = [], 0
    for _ in range(draws):
        for text in queries(rng, which):
            hits, missing = outcomes(engine, text, population)
            assert not missing, (text, missing)
            inside += hits
            answers += 1
    assert answers == draws * (5 if which == "benchmark" else 1)
    outside = 1 - sum(inside) / len(inside)
    assert outside <= 1 - CONFIDENCE + 0.03, (outside, len(inside))


def test_fan_out_widens_the_bound_instead_of_raising(benchmark_like):
    """Two solutions per first-stage row: 2n "successes" in m trials broke
    the per-row binomial (a math domain error); the frame counts rows
    that move together."""
    engine = QueryEngine(benchmark_like)
    links = PREFIXES + (
        "SELECT (COUNT(?t) AS ?n) WHERE { ?s rdf:type ex:Class0 . "
        "?s ex:linksTo ?t . ?s ex:numeric0 ?v . FILTER(?v > 50) }"
    )
    single = PREFIXES + (
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s rdf:type ex:Class0 . "
        "?s ex:numeric0 ?v . FILTER(?v > 50) }"
    )
    bundle = build_sketch_bundle(engine, links, max_rows=BUDGET)
    assert bundle.fanout == 2
    assert bundle.to_dict()["fanout"] == 2
    assert "fanout" not in build_sketch_bundle(
        engine, single, max_rows=BUDGET
    ).to_dict()
    wide = approximate_select(engine, links, max_rows=BUDGET).bounds["n"]
    narrow = approximate_select(engine, single, max_rows=BUDGET).bounds["n"]
    assert wide > 1.5 * narrow


# --------------------------------------------------------------------------- #
# One pass, one consumer
# --------------------------------------------------------------------------- #


def small_store():
    store = MemoryStore()
    for index in range(120):
        subject = IRI(f"http://example.org/s{index}")
        store.add(Triple(subject, EX["kind"], Literal(f"k{index % 5}")))
        store.add(Triple(subject, EX["size"], Literal(index % 11)))
    return store


GROUPED = PREFIXES + (
    "SELECT ?k (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) (SUM(?v) AS ?total) "
    "WHERE { ?s ex:kind ?k . ?s ex:size ?v } GROUP BY ?k"
)
UNGROUPED = PREFIXES + (
    "SELECT (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) "
    "WHERE { ?s ex:kind ?k . ?s ex:size ?v . FILTER(?v > 3) }"
)


@pytest.mark.parametrize(
    "text", [GROUPED, UNGROUPED], ids=["grouped", "ungrouped"]
)
def test_a_query_that_fits_the_budget_is_executed_once(text):
    """The parent drained the stream, found it exhausted and ran the exact
    query again: twice the scans. The one pass is the exact answer."""
    store = small_store()
    exact_engine, shed_engine = QueryEngine(store), QueryEngine(store)
    exact = exact_engine.query(text)
    answer = sketched_select(shed_engine, text, max_rows=1_000)
    assert not answer.approximate and answer.method == "exact"
    assert set(answer.bounds.values()) == {0.0}
    assert shed_engine.stats.scan_rows == exact_engine.stats.scan_rows
    assert shed_engine.stats.store_lookups == exact_engine.stats.store_lookups

    def table(result):
        return sorted(
            tuple(round(float(row[v].value), 9) if v in row and v != Variable("k")
                  else str(row.get(v)) for v in result.variables)
            for row in result.rows
        )

    assert table(answer.result) == table(exact)


def test_the_implicit_group_survives_zero_solutions():
    engine = QueryEngine(small_store())
    nothing = PREFIXES + (
        "SELECT (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) (SUM(?v) AS ?total) "
        "WHERE { ?s ex:kind ?k . ?s ex:size ?v . FILTER(?v > 99) }"
    )
    answer = approximate_select(engine, nothing, max_rows=1_000)
    assert not answer.approximate
    (row,) = answer.result.rows
    (exact,) = engine.query(nothing).rows
    assert row == exact
    assert row[Variable("n")].value == 0 and Variable("mean") not in row


def test_id_batches_and_term_lists_fill_the_same_bundle(monkeypatch):
    """One consumer: over everything (budget >= N) the bundle built from id
    batches equals the one built from a row plan's term lists — group
    budget and ``other`` bucket included, whatever order the rows came in.
    (Integer values: their sums are exact in any order.)"""
    monkeypatch.setenv("REPRO_SKETCH_GROUPS", "2")
    store = small_store()
    from_ids = build_sketch_bundle(QueryEngine(store), GROUPED, 1_000)
    from_rows = build_sketch_bundle(
        QueryEngine(rows_only(store)), GROUPED, 1_000
    )
    assert from_ids.exhausted and from_rows.exhausted
    assert from_ids.to_dict() == from_rows.to_dict()
    moments = from_ids.agg_specs[0].sketch
    assert len(moments) == 2 and moments.spilled


def test_hll_fed_per_distinct_id_has_the_registers_of_a_per_row_feed():
    store = small_store()
    text = PREFIXES + (
        "SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s ex:size ?v }"
    )
    per_row = HllSketch(precision=default_precision(), confidence=0.95)
    for triple in store.triples((None, EX["size"], None)):
        per_row.add(_term_key(triple[2]))
    for engine in (QueryEngine(store), QueryEngine(rows_only(store))):
        bundle = build_sketch_bundle(engine, text, max_rows=10)
        assert bundle.rows_consumed == 120 and bundle.exhausted
        fed = bundle.agg_specs[0].sketch
        assert fed.to_dict()["registers"] == per_row.to_dict()["registers"]
        assert fed.items_added == 11  # one add per distinct id, not per row
