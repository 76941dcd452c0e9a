"""The planner counts where the store can: exactness, staleness, laziness,
the capability rule that chooses between counting and the snapshot, and
what the query log's estimate-vs-actual feed says once estimates are counts.
"""

import itertools

import pytest

from repro.obs import OBS
from repro.obs.workload import analyze
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql import CardinalityEstimator, QueryEngine
from repro.sparql.nodes import TriplePatternNode
from repro.store import CrackingTripleStore, MemoryStore
from repro.workload.rdf_graphs import typed_entities
from tests.helpers import e2e_triples, rows_only
from tests.sparql.test_plan_pipeline import _DIGEST_PREFIXES, _PINNED_DIGESTS

EX = "http://example.org/"
DATA = "http://example.org/data/"
RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

# The ten SELECT templates of benchmarks/e2e, as test_plan_pipeline pins them.
E2E_TEMPLATES = dict(itertools.islice(_PINNED_DIGESTS.items(), 10))


@pytest.fixture(autouse=True)
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior)


@pytest.fixture(scope="module")
def e2e_store():
    return MemoryStore(e2e_triples(3_000))


def scan_order(engine: QueryEngine, query: str) -> list[str]:
    """Pattern details of the plan's scans, in execution order."""
    plan = engine.explain(query, analyze=False)
    return [node.detail for node in plan.walk() if node.operator == "IdScan"]


def scan_estimates(engine: QueryEngine, query: str) -> list[float]:
    plan = engine.explain(query, analyze=False)
    return [node.estimated_rows for node in plan.walk() if node.operator == "IdScan"]


# --------------------------------------------------------------------------- #
# (a) exactness: an estimate on a counting store is the pattern's count
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("store_type", [MemoryStore, CrackingTripleStore])
@pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
@pytest.mark.parametrize("mask", range(8))
def test_pattern_cardinality_is_the_count(store_type, mask, present):
    store = store_type(typed_entities(120, n_classes=3, seed=5))
    estimator = CardinalityEstimator.for_store(store)
    if present:
        # every triple of one subject, so each mask meets several shapes
        # (one match, many matches) of a constant that is there
        subject = next(iter(store.triples()))[0]
        samples = list(store.triples((subject, None, None)))
    else:
        # one constant the dictionary has never seen, one it knows from
        # another position
        samples = [
            Triple(IRI(EX + "nobody"), IRI(EX + "nothing"), Literal("nowhere")),
            Triple(RDF_TYPE, IRI(DATA + "Class0"), IRI(DATA + "entity0")),
        ]
    assert samples
    for triple in samples:
        pattern = tuple(
            term if mask & (1 << position) else None
            for position, term in enumerate(triple)
        )
        node = TriplePatternNode(*(
            Variable("spo"[position]) if term is None else term
            for position, term in enumerate(pattern)
        ))
        assert estimator.pattern_cardinality(node) == sum(
            1 for _ in store.triples(pattern)
        ), pattern


# --------------------------------------------------------------------------- #
# The capability rule
# --------------------------------------------------------------------------- #


class _Counting:
    """``triples`` / ``count`` / ``__len__`` of a store, calls counted."""

    def __init__(self, store):
        self._store = store
        self.count_calls = 0

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)):
        self.count_calls += 1
        return self._store.count(pattern)

    def __len__(self):
        return len(self._store)


class _CountingWithStatistics(_Counting):
    def statistics(self):
        return self._store.statistics()


def test_counting_or_snapshot_follows_what_the_store_offers():
    store = MemoryStore(typed_entities(300, n_classes=3, seed=9))
    query = _DIGEST_PREFIXES + (
        "SELECT ?s ?v WHERE { ?s rdf:type ex:Class1 . ?s ex:numeric0 ?v }"
    )
    actual = store.count((None, RDF_TYPE, IRI(DATA + "Class1")))
    assert actual != 100  # the uniformity figure: 300 entities, 3 classes

    # sorted runs: counted, and no snapshot is ever built
    counted = CardinalityEstimator.for_store(store)
    assert counted.snapshot is None and counted.store is store
    assert scan_estimates(QueryEngine(store), query)[0] == actual

    # statistics() but no count_ids: the snapshot, and count() is not called
    published = _CountingWithStatistics(store)
    assert CardinalityEstimator.for_store(published).snapshot is not None
    assert scan_estimates(QueryEngine(published), query)[0] == 100.0
    assert published.count_calls == 0

    # neither: count(), whatever it costs
    bare = _Counting(store)
    assert CardinalityEstimator.for_store(bare).snapshot is None
    assert scan_estimates(QueryEngine(bare), query)[0] == actual
    assert bare.count_calls > 0


# --------------------------------------------------------------------------- #
# (b) staleness: a write is visible to the next plan
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("store_type", [MemoryStore, CrackingTripleStore])
def test_next_plan_sees_a_write_without_invalidation(store_type):
    store = store_type(typed_entities(60, n_classes=3, seed=12))
    engine = QueryEngine(store)
    query = _DIGEST_PREFIXES + "SELECT ?s WHERE { ?s rdf:type ex:Class0 }"
    (before,) = scan_estimates(engine, query)
    assert before == store.count((None, RDF_TYPE, IRI(DATA + "Class0"))) > 0

    store.add(Triple(IRI(DATA + "late"), RDF_TYPE, IRI(DATA + "Class0")))
    assert scan_estimates(engine, query) == [before + 1]

    store.remove((None, RDF_TYPE, IRI(DATA + "Class0")))
    assert scan_estimates(engine, query) == [0.0]


# --------------------------------------------------------------------------- #
# (c) laziness: planning sorts no run the query does not read
# --------------------------------------------------------------------------- #


def test_subject_lookup_pays_for_one_sort():
    store = MemoryStore(typed_entities(200, n_classes=3, seed=3))
    result = QueryEngine(store).query(
        _DIGEST_PREFIXES + "SELECT ?p ?o WHERE { ex:entity7 ?p ?o }"
    )
    assert len(result) > 0
    assert store.sorts_paid == 1  # SPO; POS and OSP were never asked for


# --------------------------------------------------------------------------- #
# The skewed scenario the estimate-repair loop was built for
# --------------------------------------------------------------------------- #

HOT_PRED = IRI(EX + "inCluster")
RARE_PRED = IRI(EX + "taggedWith")
HOT = IRI(EX + "cluster/main")
RARE = IRI(EX + "tag/rare")

SKEWED_QUERY = (
    f"SELECT ?e WHERE {{ ?e <{HOT_PRED}> <{HOT}> . "
    f"?e <{RARE_PRED}> <{RARE}> }}"
)


def skewed_store(n: int = 2_000, rare: int = 10) -> MemoryStore:
    """Skew *inside* one predicate, which a per-predicate distinct-object
    count cannot see: through ``inCluster`` every entity points at a
    cluster of its own and at ONE hot object (actual matches of the hot
    object = n, uniformity estimate 2n / (n + 1) ~ 2), while ``taggedWith``
    spreads ``5 * rare`` entities evenly over five tags (``rare`` each)."""
    store = MemoryStore()
    for index in range(n):
        entity = IRI(f"{EX}entity/{index}")
        store.add(Triple(entity, HOT_PRED, HOT))
        store.add(Triple(entity, HOT_PRED, IRI(f"{EX}cluster/c{index}")))
        if index < 5 * rare:
            tag = RARE if index % 5 == 0 else IRI(f"{EX}tag/t{index % 5}")
            store.add(Triple(entity, RARE_PRED, tag))
    return store


def test_first_plan_scans_the_rare_pattern_first():
    """The snapshot prices the hot pattern at ~2 rows and scans it first;
    counting prices it at 2,000 and the *first* plan starts from the rare
    one — what the repair loop needed four executions, an offline analyzer
    and a new engine to reach — for a tenth of the work of the textual
    order."""
    store = skewed_store()
    guessed = scan_order(QueryEngine(rows_only(store)), SKEWED_QUERY)
    assert HOT.n3() in guessed[0], guessed

    engine = QueryEngine(store)
    assert scan_estimates(engine, SKEWED_QUERY) == [10.0, 2000.0]
    assert RARE.n3() in scan_order(engine, SKEWED_QUERY)[0]

    def work(engine_):
        result = engine_.query(SKEWED_QUERY)
        assert len(result) == 10
        return result.stats.store_lookups + result.stats.scan_rows

    assert work(engine) * 10 <= work(QueryEngine(store, optimize=False))


# --------------------------------------------------------------------------- #
# (d) the e2e templates: same join orders, and a drift report of 1.0
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(E2E_TEMPLATES))
def test_e2e_template_join_order_is_the_snapshot_planners(e2e_store, name):
    query = _DIGEST_PREFIXES + E2E_TEMPLATES[name][0]
    assert scan_order(QueryEngine(e2e_store), query) == scan_order(
        QueryEngine(rows_only(e2e_store)), query
    )


def test_e2e_replay_has_no_drift(e2e_store):
    OBS.querylog.enabled = True
    engine = QueryEngine(e2e_store)
    for text, _digest in E2E_TEMPLATES.values():
        engine.query(_DIGEST_PREFIXES + text)
    engine.query(_DIGEST_PREFIXES + "DESCRIBE ex:entity7")
    records = OBS.querylog.records()
    assert len(records) == 11
    leading = [
        scan for record in records for scan in record.scans if scan.leading
    ]
    # every template but the LIMIT 20 star drains its first stage
    assert len(leading) >= 8
    assert all(scan.estimated == scan.actual for scan in leading), leading
    drift = analyze(records).drift()
    assert drift and all(
        row["median"] == row["min"] == row["max"] == 1.0 for row in drift.values()
    ), drift


# --------------------------------------------------------------------------- #
# A first stage that was cut short or sampled is not an observation
# --------------------------------------------------------------------------- #

STAR = (
    "SELECT ?s ?l ?v WHERE { ?s rdf:type ex:Class1 . ?s rdfs:label ?l . "
    "?s ex:numeric0 ?v }"
)


def test_limit_truncated_scan_is_not_leading(e2e_store):
    OBS.querylog.enabled = True
    engine = QueryEngine(e2e_store)
    population = e2e_store.count((None, RDF_TYPE, IRI(DATA + "Class1")))

    engine.query(_DIGEST_PREFIXES + STAR + " LIMIT 20")
    cut = OBS.querylog.records()[-1].scans[0]
    assert cut.estimated == population and 0 < cut.actual < population
    assert not cut.leading

    engine.query(_DIGEST_PREFIXES + STAR)
    drained = OBS.querylog.records()[-1].scans[0]
    assert drained.leading and drained.actual == drained.estimated == population

    stream = engine.stream_select(_DIGEST_PREFIXES + STAR)
    bgp = stream.root.children[0]
    assert bgp.name == "VectorizedBGP"
    bgp.sample_first_stage(50, seed=1)
    assert sum(batch.count for batch in stream.batches) == 50
    record = OBS.querylog.records()[-1]
    sampled = record.scans[0]
    assert record.strategy.endswith("+sample") and record.complete
    assert (sampled.actual, sampled.estimated) == (50, population)
    assert not sampled.leading

    # neither shows up as drift
    drift = analyze(OBS.querylog.records()).drift()
    assert [row["observations"] for row in drift.values()] == [1]
