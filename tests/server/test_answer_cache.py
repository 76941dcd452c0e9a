"""The one answer cache all workers share, in front of the parser.

A repeated request is a hit whichever worker takes it and whatever its
query form; a write to the store is visible to the next identical request;
the cache stays inside its entry and byte bounds; every exact answer,
aggregates and ``/facets`` included, is kept and served whatever the shed
tier; and what must never be kept (approximate answers, sketch bundles,
progressive streams, errors) is not.
"""

import http.client
import json
import sys
import threading
import time
import urllib.parse
from unittest import mock

import pytest

from repro.obs import OBS
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.server import app
from repro.server.app import ReproServer, ServerConfig
from repro.sparql import QueryEngine, cached, plan
from repro.sparql.cached import CachedQueryEngine
from repro.store.cracking import CrackingTripleStore
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore
from repro.sparql.parser import parse_query
from repro.sparql.plan import query_digest
from tests.helpers import e2e_triples, wait_for
from tests.sparql.test_reference_parity import CAPTURE, _PREFIXES

EX = "http://example.org/"
VALUE = IRI(EX + "value")
LABEL = IRI(EX + "label")
ITEM1 = f"{EX}item/1"

SELECT = f"SELECT ?v WHERE {{ <{ITEM1}> <{EX}value> ?v }}"
SELECT_RENAMED = (
    f"PREFIX e: <{EX}>   SELECT ?v\nWHERE {{ <{ITEM1}>   e:value ?v }}"
)
DESCRIBE = f"DESCRIBE <{ITEM1}>"
ASK = f"ASK {{ <{ITEM1}> <{EX}value> ?v }}"
CONSTRUCT = f"CONSTRUCT {{ ?s <{EX}value> ?v }} WHERE {{ ?s <{EX}value> ?v }} LIMIT 3"
AGGREGATE = f"SELECT (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}value> ?v }}"
TOTAL = f"SELECT (SUM(?v) AS ?t) WHERE {{ ?s <{EX}value> ?v }}"


def fill(store, n: int = 40):
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, VALUE, Literal(index)))
        store.add(Triple(subject, LABEL, Literal(f"item {index}")))
    return store


def get(server, target: str, headers: dict | None = None):
    """``(response, body)`` of one GET, body read in full."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request("GET", target, headers=headers or {})
        response = connection.getresponse()
        return response, response.read()
    finally:
        connection.close()


def sparql(server, query: str, headers: dict | None = None):
    return get(
        server, "/sparql?" + urllib.parse.urlencode({"query": query}), headers
    )


def describe_route(server, iri: str = ITEM1):
    return get(server, "/describe?" + urllib.parse.urlencode({"resource": iri}))


def stats(server) -> dict:
    return json.loads(get(server, "/stats")[1])


def rows(body: bytes) -> int:
    return len(json.loads(body)["results"]["bindings"])


def until(condition, timeout: float = 5.0) -> None:
    """Wait for what a server accounts after a response's last byte (the
    client may ask again before it has)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


@pytest.fixture()
def store():
    return fill(MemoryStore())


@pytest.fixture()
def server(store):
    with ReproServer(store, ServerConfig(workers=4)) as instance:
        yield instance


# -- sharing -------------------------------------------------------------------


def test_one_fill_serves_every_worker(server):
    first, body = sparql(server, SELECT)
    assert first.getheader("X-Repro-Cache") is None
    for _ in range(40):  # four workers take these in turn
        response, again = sparql(server, SELECT)
        assert response.getheader("X-Repro-Cache") == "hit" and again == body
    cache = stats(server)["cache"]
    assert (cache["entries"], cache["hits"], cache["misses"]) == (1, 40, 1)


@pytest.mark.parametrize("query, content_type", [
    (SELECT, "application/sparql-results+json"),
    (DESCRIBE, "application/n-triples"),
    (CONSTRUCT, "application/n-triples"),
    (ASK, "application/sparql-results+json"),
])
def test_every_exact_form_hits_with_the_same_bytes(server, query, content_type):
    first, body = sparql(server, query)
    assert first.status == 200 and first.getheader("X-Repro-Cache") is None
    again, repeated = sparql(server, query)
    assert again.getheader("X-Repro-Cache") == "hit"
    assert again.getheader("X-Repro-Tier") == "exact"
    assert again.getheader("Content-Type") == content_type
    assert repeated == body and body


@pytest.fixture(scope="module")
def capture_server():
    with ReproServer(MemoryStore(e2e_triples(40)),
                     ServerConfig(workers=2)) as instance:
        yield instance


@pytest.mark.parametrize("name", sorted(CAPTURE))
def test_a_miss_plans_once_under_its_query_digest(capture_server, name,
                                                  monkeypatch):
    # The plan a miss digests is the plan it runs: the parity corpus's
    # queries each optimize once (a DESCRIBE without WHERE has nothing to
    # optimize) and are kept under the digest query_digest gives them.
    text = _PREFIXES + CAPTURE[name]
    original = plan.optimize_plan
    optimized = mock.Mock(wraps=original)
    for module in list(sys.modules.values()):  # wherever it was imported
        if getattr(module, "optimize_plan", None) is original:
            monkeypatch.setattr(module, "optimize_plan", optimized)
    response, body = sparql(capture_server, text)
    assert response.status == 200 and body
    assert response.getheader("X-Repro-Cache") is None
    assert optimized.call_count == (0 if name == "describe" else 1)
    assert capture_server.answers.texts.get(text) \
        == query_digest(parse_query(text))


def test_a_textual_hit_runs_no_parser_planner_or_serializer(server, monkeypatch):
    bodies = [sparql(server, query)[1] for query in (SELECT, DESCRIBE, ASK)]

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called on a hit")
        return fail

    for module in (app, cached):
        for name in ("parse_query", "batch_block", "to_sparql_json",
                     "serialize_ntriples", "ask_to_sparql_json"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    monkeypatch.setattr(CachedQueryEngine, "evaluate", forbidden("evaluate"))
    for name in ("plan_digest", "query", "stream_select"):
        monkeypatch.setattr(QueryEngine, name, forbidden(name))
    for query, body in zip((SELECT, DESCRIBE, ASK), bodies):
        response, again = sparql(server, query)
        assert response.status == 200, again
        assert response.getheader("X-Repro-Cache") == "hit" and again == body


def test_two_texts_of_one_plan_share_an_entry(server):
    _, body = sparql(server, SELECT)
    response, renamed = sparql(server, SELECT_RENAMED)  # parsed, then found
    assert response.getheader("X-Repro-Cache") == "hit" and renamed == body
    assert sparql(server, SELECT_RENAMED)[0].getheader("X-Repro-Cache") == "hit"
    cache = stats(server)["cache"]
    assert (cache["entries"], cache["hits"], cache["misses"]) == (1, 2, 1)
    assert len(server.answers.texts) == 2  # both texts now skip the parser


def test_describe_route_shares_the_entry_of_the_describe_query(server):
    service = f"repro-server:{server.port}"
    prior = len(OBS.querylog.records(service=service))

    def logged(n):
        """The records since ``prior`` once ``n`` have landed: a request's
        record is written after its last byte, so it can trail the next
        request's."""
        wait_for(lambda: len(OBS.querylog.records(service=service)) >= prior + n)
        return OBS.querylog.records(service=service)[prior:]

    first, body = sparql(server, DESCRIBE)
    assert first.getheader("X-Repro-Cache") is None
    logged(1)
    response, routed = describe_route(server)
    assert response.getheader("X-Repro-Cache") == "hit" and routed == body
    assert response.getheader("Content-Type") == "application/n-triples"
    assert stats(server)["cache"]["entries"] == 1
    records = logged(2)
    assert [(r.form, r.strategy, r.cache_hit) for r in records] == [
        ("DESCRIBE", records[0].strategy, False),
        ("DESCRIBE", "cached", True),
    ]
    assert records[1].digest == records[0].digest
    assert records[1].interaction_class == "navigation"
    # and the other way round: the route fills, the query form hits
    other = f"{EX}item/2"
    assert describe_route(server, other)[0].getheader("X-Repro-Cache") is None
    response, _ = sparql(server, f"DESCRIBE <{other}>")
    assert response.getheader("X-Repro-Cache") == "hit"


# -- a write is visible to the next identical request ----------------------------


def sees_write(server, ask, count, write, before: int, after: int):
    """request → write → the same request: new answer, no cache header,
    and the request after that is a hit on the new answer."""
    first, body = ask()
    assert count(body) == before
    assert ask()[0].getheader("X-Repro-Cache") == "hit"
    version = stats(server)["store_version"]
    write()
    assert stats(server)["store_version"] != version
    response, body = ask()
    assert response.getheader("X-Repro-Cache") is None
    assert count(body) == after
    response, again = ask()
    assert response.getheader("X-Repro-Cache") == "hit" and again == body


def lines(body: bytes) -> int:
    return len(body.decode("utf-8").splitlines())


@pytest.mark.parametrize("store_class", [MemoryStore, CrackingTripleStore, Graph])
def test_a_write_is_visible_to_the_next_identical_request(store_class):
    store = fill(store_class())
    extra = Triple(IRI(ITEM1), VALUE, Literal(-5))
    with ReproServer(store, ServerConfig(workers=2)) as server:
        retired = stats(server)["cache"]["retired"]
        sees_write(server, lambda: sparql(server, SELECT), rows,
                   lambda: store.add(extra), 1, 2)
        sees_write(server, lambda: sparql(server, SELECT), rows,
                   lambda: store.remove(extra), 2, 1)
        sees_write(server, lambda: sparql(server, DESCRIBE), lines,
                   lambda: store.add(extra), 2, 3)
        sees_write(server, lambda: describe_route(server), lines,
                   lambda: store.remove(extra), 3, 2)
        # each write retired the one entry asked for again after it
        assert stats(server)["cache"]["retired"] == retired + 4
        # a write that changes nothing retires nothing
        sparql(server, SELECT)
        version = store.version
        assert not store.add(Triple(IRI(ITEM1), VALUE, Literal(1)))
        assert store.remove(extra) == 0 and store.version == version
        assert sparql(server, SELECT)[0].getheader("X-Repro-Cache") == "hit"


def test_store_version_is_published(server, store):
    statistics = json.loads(get(server, "/statistics")[1])
    assert statistics["store_version"] == store.version == stats(server)["store_version"]
    assert isinstance(store.version, int)  # a counter, not an address
    store.add(Triple(IRI(ITEM1), LABEL, Literal("renamed")))
    assert json.loads(get(server, "/statistics")[1])["store_version"] == store.version


def test_a_federation_reports_its_members_versions(store):
    other = fill(MemoryStore(), 3)
    federation = FederatedStore([("a", store), ("b", other)])
    before = federation.version
    assert before == (store.version, other.version)
    other.add(Triple(IRI(ITEM1), LABEL, Literal("elsewhere")))
    assert federation.version != before
    federation.add_source("c", VersionLess(store))
    assert federation.version is None


class VersionLess:
    """A store that offers no ``version``: taken never to change."""

    def __init__(self, store) -> None:
        self._store = store

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)) -> int:
        return self._store.count(pattern)

    def __len__(self) -> int:
        return len(self._store)


def test_a_store_without_a_version_is_served_as_before(store):
    with ReproServer(VersionLess(store), ServerConfig(workers=2)) as server:
        _, body = sparql(server, SELECT)
        store.add(Triple(IRI(ITEM1), VALUE, Literal(-5)))
        response, again = sparql(server, SELECT)
        # nothing says the contents changed, so the entry stands
        assert response.getheader("X-Repro-Cache") == "hit" and again == body
        assert stats(server)["store_version"] is None
        assert stats(server)["cache"]["retired"] == 0


# -- observability ---------------------------------------------------------------


def test_a_hit_is_logged_for_whoever_asked(server):
    OBS.configure(enabled=True)
    try:
        sparql(server, SELECT, {"X-Repro-Tenant": "filler"})
        trace_id = "ab" * 8
        response, _ = sparql(server, SELECT, {
            "X-Repro-Tenant": "asker", "X-Repro-Trace": trace_id,
            "X-Repro-Span": "cd" * 4,
        })
        assert response.getheader("X-Repro-Cache") == "hit"
    finally:
        OBS.configure(enabled=False)

    def by_tenant():
        found = {record.tenant: record for record in OBS.querylog.records(
            service=f"repro-server:{server.port}")}
        return found if {"filler", "asker"} <= found.keys() else None

    found = wait_for(by_tenant)
    fill_record, hit = found["filler"], found["asker"]
    assert (hit.cache_hit, hit.strategy, hit.form) == (True, "cached", "SELECT")
    assert (hit.tenant, hit.interaction_class, hit.trace_id) == (
        "asker", "interactive", trace_id,
    )
    assert (hit.digest, hit.solutions) == (fill_record.digest, 1)
    assert hit.store_lookups == 0 and hit.scan_rows == 0
    assert hit.tier == "exact"


def test_stats_and_metrics_describe_the_cache(server):
    sparql(server, SELECT)
    sparql(server, SELECT)
    sparql(server, DESCRIBE)
    cache = stats(server)["cache"]
    assert cache == {
        "entries": 2, "bytes": cache["bytes"], "hits": 1, "misses": 2,
        "evictions": 0, "retired": 0,
    }
    assert cache["bytes"] > len(SELECT) + len(DESCRIBE)
    exposition = get(server, "/metrics")[1].decode("utf-8")
    for name in cache:
        assert f"server_cache_{name}" in exposition
    # what benchmarks/e2e/loadgen.py::stats_delta reads is still there
    payload = stats(server)
    assert {"engine", "admission", "aggregate_served",
            "aggregate_approximate"} <= set(payload)
    assert payload["engine"]["solutions"] == 1  # the hit ran no engine
    assert "rejected" in payload["admission"]


# -- bounds ----------------------------------------------------------------------


def listing(limit: int) -> str:
    return f"SELECT ?s ?v WHERE {{ ?s <{EX}value> ?v }} LIMIT {limit}"


def test_entries_leave_in_lru_order_under_the_byte_budget(store, monkeypatch):
    with ReproServer(store, ServerConfig(workers=1)) as probe:
        sparql(probe, listing(10))
        one = stats(probe)["cache"]["bytes"]
    # room for three ten-row listings, not four; a forty-row one never fits
    monkeypatch.setattr(cached, "CACHE_BYTES", int(one * 3.5))
    with ReproServer(store, ServerConfig(workers=2)) as server:
        queries = [listing(10) + f" OFFSET {n}" for n in range(4)]
        for query in queries[:3]:
            sparql(server, query)
        assert sparql(server, queries[0])[0].getheader("X-Repro-Cache") == "hit"
        sparql(server, queries[3])  # evicts the least recently used: queries[1]
        cache = stats(server)["cache"]
        assert (cache["entries"], cache["evictions"]) == (3, 1)
        assert cache["bytes"] <= int(one * 3.5)
        assert sparql(server, queries[0])[0].getheader("X-Repro-Cache") == "hit"
        assert sparql(server, queries[2])[0].getheader("X-Repro-Cache") == "hit"
        assert sparql(server, queries[1])[0].getheader("X-Repro-Cache") is None
        # larger than the whole budget: served, and served again, never kept
        before = stats(server)["cache"]
        for _ in range(2):
            response, body = sparql(server, listing(40))
            assert response.getheader("X-Repro-Cache") is None
            assert rows(body) == 40
        after = stats(server)["cache"]
        assert (after["entries"], after["evictions"]) == (
            before["entries"], before["evictions"],
        )


def test_distinct_texts_leave_both_maps_bounded(store):
    with ReproServer(store, ServerConfig(workers=2, cache_capacity=4)) as server:
        for n in range(12):
            sparql(server, listing(1) + f" OFFSET {n}")
            # the same plan under ever new texts
            sparql(server, SELECT + " " * n)
        assert stats(server)["cache"]["entries"] <= 4
        assert len(server.answers.cache) <= 4 and len(server.answers.texts) <= 4
        assert server.answers.texts.bytes <= cached.CACHE_BYTES // 16


# -- never kept ------------------------------------------------------------------


def test_what_is_never_cached(store):
    config = ServerConfig(
        workers=2, shed_budget_ms=1e-6, shed_min_observations=1,
        approx_max_rows=8,
    )
    grouped = (
        f"SELECT ?v (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}value> ?v . "
        f"FILTER(?v > 3) }} GROUP BY ?v"
    )
    with ReproServer(store, config) as server:
        sparql(server, SELECT)  # one observation: the shedder escalates
        until(lambda: stats(server)["shedding"]["window_size"] >= 1)
        approximate = 0
        for _ in range(3):
            for query, headers in [
                (AGGREGATE, None),
                (grouped, None),
                (AGGREGATE, {"X-Repro-Sketch": "1"}),
                (AGGREGATE, {"X-Repro-Progressive": "1"}),
            ]:
                response, _ = sparql(server, query, headers)
                assert response.status == 200
                assert response.getheader("X-Repro-Cache") is None
                approximate += response.getheader("X-Repro-Approximate") == "1"
            response, _ = sparql(server, "SELECT ?s WHERE { ?s ")
            assert response.status == 400
            assert response.getheader("X-Repro-Cache") is None
            response, _ = sparql(server, SELECT, {"Accept": "image/png"})
            assert response.status == 406
        assert approximate >= 3  # the shed tier did answer
        cache = stats(server)["cache"]
        assert cache["entries"] == 1  # the warm-up SELECT and nothing else
        assert len(server.answers.texts) == 1


# -- the policy: every exact answer is kept, an approximate one never ----------


def test_a_repeated_exact_aggregate_is_a_hit(server):
    first, body = sparql(server, AGGREGATE)
    assert first.getheader("X-Repro-Cache") is None
    again, repeated = sparql(server, AGGREGATE)
    assert again.getheader("X-Repro-Cache") == "hit"
    assert again.getheader("X-Repro-Tier") == "exact"
    assert repeated == body
    assert json.loads(body)["results"]["bindings"][0]["n"]["value"] == "40"
    # answered from the cache, it still counts as an aggregate served
    until(lambda: stats(server)["aggregate_served"] == 2)


@pytest.fixture()
def escalated(store):
    """A server whose shedder has escalated, holding AGGREGATE's exact
    answer from before it had the observations it needs."""
    config = ServerConfig(workers=2, shed_budget_ms=1e-6,
                          shed_min_observations=2, approx_max_rows=8)
    with ReproServer(store, config) as server:
        first, body = sparql(server, AGGREGATE)
        assert first.getheader("X-Repro-Tier") == "exact"
        sparql(server, SELECT)
        until(lambda: stats(server)["shedding"]["window_size"] >= 2)
        yield server, body


def test_a_shed_tier_serves_a_kept_exact_answer(escalated):
    server, body = escalated
    response, _ = sparql(server, TOTAL)  # the tier does estimate
    assert response.getheader("X-Repro-Approximate") == "1"
    response, again = sparql(server, AGGREGATE)
    assert response.getheader("X-Repro-Cache") == "hit"
    assert response.getheader("X-Repro-Tier") == "exact"
    assert response.getheader("X-Repro-Approximate") is None
    assert again == body
    until(lambda: (stats(server)["aggregate_served"],
                   stats(server)["aggregate_approximate"]) == (3, 1))


def test_an_approximate_answer_is_never_a_hit(escalated):
    server, _ = escalated
    entries = stats(server)["cache"]["entries"]
    for _ in range(3):
        response, _ = sparql(server, TOTAL)
        assert response.getheader("X-Repro-Approximate") == "1"
        assert response.getheader("X-Repro-Cache") is None
    assert stats(server)["cache"]["entries"] == entries


def test_the_approximate_modes_never_read_the_cache(server):
    sparql(server, AGGREGATE)
    assert sparql(server, AGGREGATE)[0].getheader("X-Repro-Cache") == "hit"
    hits = stats(server)["cache"]["hits"]
    response, body = sparql(server, AGGREGATE, {"X-Repro-Sketch": "1"})
    assert response.getheader("X-Repro-Sketch") == "1"
    assert response.getheader("X-Repro-Cache") is None
    assert json.loads(body)["specs"]
    response, body = sparql(server, AGGREGATE, {"X-Repro-Progressive": "1"})
    assert response.getheader("Content-Type") == "application/x-ndjson"
    assert response.getheader("X-Repro-Cache") is None
    assert [json.loads(line)["pass"] for line in body.splitlines()]
    assert stats(server)["cache"]["hits"] == hits


def test_a_retired_aggregate_is_estimated_again(escalated, store):
    server, _ = escalated
    store.add(Triple(IRI(ITEM1), VALUE, Literal(-5)))
    for _ in range(2):  # the text is known; its entry is stale, then gone
        response, _ = sparql(server, AGGREGATE)
        assert response.getheader("X-Repro-Approximate") == "1"
        assert response.getheader("X-Repro-Cache") is None
    assert stats(server)["cache"]["retired"] == 1


def test_facets_are_kept_under_their_two_parameters(server, store):
    def facets(max_values: int):
        return get(server, f"/facets?max_values={max_values}")

    first, body = facets(3)
    assert first.status == 200 and first.getheader("X-Repro-Cache") is None
    again, repeated = facets(3)
    assert again.getheader("X-Repro-Cache") == "hit" and repeated == body
    assert facets(4)[0].getheader("X-Repro-Cache") is None
    store.add(Triple(IRI(ITEM1), LABEL, Literal("renamed")))
    assert facets(3)[0].getheader("X-Repro-Cache") is None
    assert facets(3)[0].getheader("X-Repro-Cache") == "hit"


# -- concurrency -----------------------------------------------------------------


def test_mixed_hits_fills_and_writes_from_eight_threads(store):
    queries = [SELECT, SELECT_RENAMED, DESCRIBE, listing(5)]
    extra = [Triple(IRI(ITEM1), VALUE, Literal(-n)) for n in range(1, 9)]

    def reference() -> list[bytes]:
        with ReproServer(store, ServerConfig(workers=1)) as fresh:
            return [sparql(fresh, query)[1] for query in queries]

    # every version the store goes through, answered by a cold server
    valid = [reference()]
    for triple in extra:
        store.add(triple)
        valid.append(reference())
    for triple in extra:
        store.remove(triple)
    accepted = [{answers[i] for answers in valid} for i in range(len(queries))]

    failures: list[str] = []
    stop = threading.Event()

    def reader(server, offset: int) -> None:
        turn = offset
        while not stop.is_set():
            index = turn % len(queries)
            turn += 1
            try:
                response, body = sparql(server, queries[index])
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"{type(error).__name__}: {error}")
                return
            if response.status != 200 or body not in accepted[index]:
                failures.append(f"{queries[index]!r} -> {response.status} {body!r}")
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ReproServer(store, ServerConfig(workers=4, queue_capacity=64)) as server:
            threads = [
                threading.Thread(target=reader, args=(server, n)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for triple in extra:  # the writer: eight versions, one at a time
                store.add(triple)
                for _ in range(3):
                    sparql(server, SELECT)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:3]
            cache = stats(server)["cache"]
            assert cache["hits"] > 0 and cache["retired"] > 0
            assert cache["entries"] <= 3  # three plans under four texts
            # quiescent: the final version's answers, from the cache
            for index, query in enumerate(queries):
                sparql(server, query)
                response, body = sparql(server, query)
                assert response.getheader("X-Repro-Cache") == "hit"
                assert body == valid[-1][index]
    finally:
        sys.setswitchinterval(interval)
