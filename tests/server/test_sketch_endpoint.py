"""The shed tier over live HTTP: sampled GROUP BY answers with error-bound
headers, COUNT(DISTINCT) exact where ids can be scanned and from the HLL
over a federation, the ``X-Repro-Sketch`` wire mode, progressive NDJSON
refinement, and ``/statistics`` distinct-object counts."""

import json
import random
import urllib.parse
import urllib.request

import pytest

from repro.rdf.terms import IRI, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
GROUPED = "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ?p ?c } GROUP BY ?c"
DISTINCT = "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s ?p ?c }"
SEL = "SELECT ?s WHERE { ?s ?p ?c } LIMIT 2"


def interleaved_store(n: int = 3_000, groups: int = 6, seed: int = 45):
    """One type triple per item, the group drawn at random."""
    rng = random.Random(seed)
    store = MemoryStore()
    truth: dict = {}
    for index in range(n):
        group = f"{EX}cls{rng.randrange(groups)}"
        store.add(Triple(
            IRI(f"{EX}item/{index}"), IRI(EX + "type"), IRI(group)
        ))
        truth[group] = truth.get(group, 0) + 1
    return store, truth


def fetch(url: str, headers: dict | None = None):
    request = urllib.request.Request(url)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    return urllib.request.urlopen(request, timeout=10)


def sparql_url(base: str, query: str, **params) -> str:
    params["query"] = query
    return f"{base}/sparql?" + urllib.parse.urlencode(params)


def force_overload(server) -> None:
    """Blow the latency budget so the next decision sheds."""
    for _ in range(6):
        fetch(sparql_url(server.base_url, SEL)).read()


SHEDDING = dict(
    workers=2, shed_budget_ms=5.0, shed_min_observations=4,
    shed_window=32, debug_delay_ms=20.0, approx_max_rows=2_400,
)


@pytest.fixture()
def shedding_server():
    store, truth = interleaved_store()
    with ReproServer(store, ServerConfig(**SHEDDING)) as server:
        yield server, truth


@pytest.fixture()
def federated_server():
    """The same data as two in-process members of a federation: a store
    with no id scans to offer, answered by merging the members' bundles."""
    store, truth = interleaved_store()
    members = MemoryStore(), MemoryStore()
    for index, triple in enumerate(store.triples((None, None, None))):
        members[index % 2].add(triple)
    federation = FederatedStore([("a", members[0]), ("b", members[1])])
    with ReproServer(federation, ServerConfig(**SHEDDING)) as server:
        yield server, truth


def query_log(server) -> list[dict]:
    body = fetch(f"{server.base_url}/debug/queries").read().decode("utf-8")
    return [json.loads(line) for line in body.splitlines() if line.strip()]


class TestShedGroupBy:
    def test_overload_serves_sketched_groups_with_bounds(
        self, shedding_server
    ):
        server, truth = shedding_server
        force_overload(server)
        response = fetch(sparql_url(server.base_url, GROUPED))
        assert response.headers["X-Repro-Approximate"] == "1"
        assert response.headers["X-Repro-Tier"] in ("sampled", "aggressive")
        rows_consumed = int(response.headers["X-Repro-Rows-Consumed"])
        assert 0 < rows_consumed < 3_000
        bounds = json.loads(response.headers["X-Repro-Error-Bound"])
        assert bounds["n"] > 0
        body = json.loads(response.read())
        assert body["x-repro"]["method"] == "sketch"
        assert body["x-repro"]["groups"] == len(truth)
        bindings = body["results"]["bindings"]
        assert len(bindings) == len(truth)
        # every group's estimate within a generous multiple of the
        # marginal bound (the per-group within-bound law is asserted
        # statistically in tests/server/test_sketch.py)
        for binding in bindings:
            group = binding["c"]["value"]
            estimate = float(binding["n"]["value"])
            assert abs(estimate - truth[group]) <= 5 * bounds["n"]

    def test_distinct_count_served_from_hll(self, federated_server):
        # Over a federation the members' HLLs merge duplicate-proof, which
        # no exact per-member count could: there the sketch still serves.
        server, truth = federated_server
        force_overload(server)
        response = fetch(sparql_url(server.base_url, DISTINCT))
        assert response.headers["X-Repro-Approximate"] == "1"
        body = json.loads(response.read())
        assert body["x-repro"]["method"] == "sketch-federated"
        assert body["x-repro"]["sketch"] == "hll"
        estimate = float(body["results"]["bindings"][0]["n"]["value"])
        bound = json.loads(response.headers["X-Repro-Error-Bound"])["n"]
        assert abs(estimate - len(truth)) <= max(1.0, bound)

    def test_distinct_count_is_exact_where_ids_can_be_scanned(
        self, shedding_server
    ):
        # A sample's distinct count cannot be extrapolated and the exact
        # aggregate over id batches costs less than the HLL drain, so an
        # overloaded server has nothing to shed here.
        server, truth = shedding_server
        force_overload(server)
        grouped = fetch(sparql_url(server.base_url, GROUPED))
        assert grouped.headers["X-Repro-Approximate"] == "1"  # overloaded
        grouped.read()
        response = fetch(sparql_url(server.base_url, DISTINCT))
        assert response.headers["X-Repro-Tier"] == "exact"
        assert "X-Repro-Approximate" not in dict(response.headers)
        body = json.loads(response.read())
        assert "x-repro" not in body
        assert body["results"]["bindings"][0]["n"]["value"] == str(len(truth))
        (record,) = [r for r in query_log(server)
                     if r["strategy"].endswith("+agg")]
        assert record["tier"] == "exact"


class TestSketchWireMode:
    def test_header_returns_serialized_bundle(self, shedding_server):
        server, _truth = shedding_server
        response = fetch(
            sparql_url(server.base_url, GROUPED, max_rows=500),
            headers={"X-Repro-Sketch": "1"},
        )
        assert response.headers["X-Repro-Sketch"] == "1"
        payload = json.loads(response.read())
        assert payload["v"] == 1
        assert payload["group_vars"] == ["c"]
        assert payload["rows_consumed"] == 500
        roles = [spec["role"] for spec in payload["specs"]]
        assert roles == ["group", "agg"]
        agg = payload["specs"][1]
        assert agg["kind"] == "COUNT"
        assert agg["sketch"]["sketch"] == "grouped_moments"

    def test_wire_mode_needs_no_overload(self, shedding_server):
        # explicit opt-in: works from the exact tier too (bounded work)
        server, _truth = shedding_server
        response = fetch(
            sparql_url(server.base_url, DISTINCT),
            headers={"X-Repro-Sketch": "1"},
        )
        payload = json.loads(response.read())
        assert payload["specs"][0]["sketch"]["sketch"] == "hll"


class TestProgressiveMode:
    def test_ndjson_passes_tighten(self, shedding_server):
        server, truth = shedding_server
        response = fetch(
            sparql_url(server.base_url, GROUPED, max_rows=2_000),
            headers={"X-Repro-Progressive": "1"},
        )
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) >= 2
        passes = [line["pass"] for line in lines]
        assert passes == list(range(1, len(lines) + 1))
        bounds = [
            line["metadata"]["bounds"]["n"]
            for line in lines
            if line["metadata"]["approximate"]
        ]
        assert bounds == sorted(bounds, reverse=True)
        consumed = [line["metadata"]["rows_consumed"] for line in lines]
        assert consumed == sorted(consumed)
        assert lines[-1]["final"] in (True, False)
        final_groups = {
            binding["c"]["value"]: float(binding["n"]["value"])
            for binding in lines[-1]["bindings"]
        }
        assert set(final_groups) == set(truth)


class TestStatisticsDistincts:
    def test_statistics_carry_distinct_objects_per_predicate(
        self, shedding_server
    ):
        server, truth = shedding_server
        payload = json.loads(
            fetch(f"{server.base_url}/statistics").read()
        )
        distincts = payload["predicate_distinct_objects"]
        assert distincts[EX + "type"] == len(truth)


class TestObservability:
    def test_sketch_counters_and_querylog(self, shedding_server):
        server, _truth = shedding_server
        force_overload(server)
        fetch(sparql_url(server.base_url, GROUPED)).read()
        metrics = fetch(f"{server.base_url}/metrics").read().decode("utf-8")
        assert "server_sketch_answers" in metrics
        assert 'family="grouped_moments"' in metrics
        assert "server_sketch_bytes" in metrics
        # One record per shed answer: the sampled stream's own, complete,
        # under the digest of the query the client sent.
        from repro.sparql.eval import QueryEngine

        digest = QueryEngine(server.store).plan_digest(GROUPED)
        (record,) = [r for r in query_log(server) if r["digest"] == digest]
        assert record["strategy"] == "vectorized:binary+sample"
        assert record.get("complete", True)
        assert record["tier"] in ("sampled", "aggressive")
        assert 0 < record["scan_rows"] < 3_000

    def test_federated_answer_logs_one_record_on_the_coordinator(
        self, federated_server
    ):
        # The members ran the streams (in process here, so their records
        # land in this log too); the coordinator's own record is the one
        # that stands for the answer.
        server, _truth = federated_server
        force_overload(server)
        fetch(sparql_url(server.base_url, GROUPED)).read()
        strategies = [r["strategy"] for r in query_log(server)]
        assert strategies.count("federated+sample") == 1
        assert "sketched" not in strategies
