"""The HTTP endpoint end to end over loopback: protocol conformance,
content negotiation, backpressure, load shedding, and recovery."""

import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.store.memory import MemoryStore
from tests.helpers import wait_for

EX = "http://example.org/"
VALUE = IRI(EX + "value")
LABEL = IRI(EX + "label")


def build_store(n: int = 300) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, VALUE, Literal(float((index * 7919) % 997))))
        store.add(Triple(subject, LABEL, Literal(f"item {index}")))
    return store


def fetch(url: str, accept: str | None = None, method: str = "GET",
          data: bytes | None = None, headers: dict | None = None):
    request = urllib.request.Request(url, data=data, method=method)
    if accept:
        request.add_header("Accept", accept)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    return urllib.request.urlopen(request, timeout=10)


def sparql_url(base: str, query: str) -> str:
    return f"{base}/sparql?" + urllib.parse.urlencode({"query": query})


@pytest.fixture(scope="module")
def server():
    with ReproServer(build_store(), ServerConfig(workers=2)) as instance:
        yield instance


class TestProtocol:
    def test_select_json(self, server):
        response = fetch(sparql_url(
            server.base_url,
            "SELECT ?s ?v WHERE { ?s <http://example.org/value> ?v } LIMIT 5",
        ))
        assert response.status == 200
        assert response.headers["Content-Type"] == (
            "application/sparql-results+json"
        )
        assert response.headers["X-Repro-Tier"] == "exact"
        body = json.loads(response.read())
        assert body["head"]["vars"] == ["s", "v"]
        assert len(body["results"]["bindings"]) == 5
        binding = body["results"]["bindings"][0]
        assert binding["s"]["type"] == "uri"
        assert binding["v"]["type"] == "literal"

    def test_select_streams_chunked(self, server):
        response = fetch(sparql_url(
            server.base_url,
            "SELECT ?s WHERE { ?s <http://example.org/value> ?v }",
        ))
        assert response.headers.get("Transfer-Encoding") == "chunked"
        body = json.loads(response.read())
        assert len(body["results"]["bindings"]) == 300

    def test_post_form(self, server):
        data = urllib.parse.urlencode(
            {"query": "ASK { ?s <http://example.org/value> ?o }"}
        ).encode()
        response = fetch(
            f"{server.base_url}/sparql", method="POST", data=data,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert json.loads(response.read())["boolean"] is True

    def test_post_raw_sparql_body(self, server):
        response = fetch(
            f"{server.base_url}/sparql", method="POST",
            data=b"ASK { ?s ?p ?o }",
            headers={"Content-Type": "application/sparql-query"},
        )
        assert json.loads(response.read())["boolean"] is True

    def test_construct_ntriples(self, server):
        response = fetch(sparql_url(
            server.base_url,
            "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o } LIMIT 4",
        ))
        assert response.headers["Content-Type"] == "application/n-triples"
        lines = response.read().decode().strip().splitlines()
        assert lines and all(line.endswith(" .") for line in lines)

    def test_describe_route(self, server):
        resource = urllib.parse.quote(EX + "item/1", safe="")
        response = fetch(f"{server.base_url}/describe?resource={resource}")
        assert response.headers["Content-Type"] == "application/n-triples"
        assert len(response.read().decode().strip().splitlines()) == 2

    def test_facets_route(self, server):
        response = fetch(f"{server.base_url}/facets?max_values=3")
        body = json.loads(response.read())
        assert body["focus"] == 300
        predicates = {facet["predicate"] for facet in body["facets"]}
        assert str(VALUE) in predicates and str(LABEL) in predicates

    def test_statistics_route(self, server):
        body = json.loads(fetch(f"{server.base_url}/statistics").read())
        assert body["triple_count"] == 600
        assert body["predicate_cardinalities"][str(VALUE)] == 300

    def test_health_and_stats(self, server):
        health = json.loads(fetch(f"{server.base_url}/health").read())
        assert health["status"] == "ok"
        # The probe is also the operator's overload view: shed tier,
        # queue depth, and per-tenant inflight ride along.
        assert health["shed_tier_name"] in ("exact", "sampled", "aggressive")
        assert health["queue_depth"] == 0
        # A prior request's handler may still be unwinding: inflight is a
        # live view, not a settled counter.
        assert isinstance(health["inflight"], dict)
        assert health["service"] == f"repro-server:{server.port}"
        stats = json.loads(fetch(f"{server.base_url}/stats").read())
        assert stats["admission"]["capacity"] == 32
        assert stats["admission"]["per_tenant_depth"] == {}
        assert stats["shedding"]["tier_name"] in (
            "exact", "sampled", "aggressive"
        )
        assert "slo" in stats and "inflight" in stats


class TestContentNegotiation:
    QUERY = "SELECT ?s ?v WHERE { ?s <http://example.org/value> ?v } LIMIT 3"

    def test_csv(self, server):
        response = fetch(sparql_url(server.base_url, self.QUERY),
                         accept="text/csv")
        assert response.headers["Content-Type"] == "text/csv"
        lines = response.read().decode().strip().splitlines()
        assert lines[0] == "s,v"
        assert len(lines) == 4

    def test_tsv(self, server):
        response = fetch(sparql_url(server.base_url, self.QUERY),
                         accept="text/tab-separated-values")
        lines = response.read().decode().strip().splitlines()
        assert lines[0] == "?s\t?v"
        assert lines[1].startswith("<http://example.org/item/")

    def test_wildcard_gets_json(self, server):
        response = fetch(sparql_url(server.base_url, self.QUERY),
                         accept="*/*")
        assert "json" in response.headers["Content-Type"]

    def test_unsupported_type_406(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(sparql_url(server.base_url, self.QUERY),
                  accept="application/xml")
        assert excinfo.value.code == 406


class TestErrors:
    def test_missing_query_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.base_url}/sparql")
        assert excinfo.value.code == 400

    def test_parse_error_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(sparql_url(server.base_url, "SELEKT ?s WHERE { }"))
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.base_url}/nope")
        assert excinfo.value.code == 404

    def test_bad_method_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.base_url}/sparql?query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D",
                  method="DELETE")
        assert excinfo.value.code == 405


class TestBackpressure:
    def test_queue_full_answers_503_with_retry_after(self):
        # One worker, capacity one: hold the worker on a slow query, fill
        # the queue, and the next request must bounce immediately.
        config = ServerConfig(workers=1, queue_capacity=1,
                              debug_delay_ms=500.0)
        with ReproServer(build_store(50), config) as server:
            url = sparql_url(server.base_url, "ASK { ?s ?p ?o }")
            statuses = []
            lock = threading.Lock()

            def issue():
                try:
                    response = fetch(url)
                    with lock:
                        statuses.append(response.status)
                except urllib.error.HTTPError as error:
                    with lock:
                        statuses.append(error.code)
                        if error.code == 503:
                            retry_after.append(
                                error.headers.get("Retry-After"))

            retry_after = []
            threads = [threading.Thread(target=issue) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            # Availability under overload: every request answered, either
            # served or explicitly rejected — nothing hangs, nothing drops.
            assert len(statuses) == 6
            assert set(statuses) <= {200, 503}
            assert 503 in statuses
            assert all(value == "1" for value in retry_after)
            snapshot = server.admission.snapshot()
            assert snapshot.rejected >= 1

    def test_health_bypasses_admission(self):
        config = ServerConfig(workers=1, queue_capacity=1,
                              debug_delay_ms=300.0)
        with ReproServer(build_store(50), config) as server:
            url = sparql_url(server.base_url, "ASK { ?s ?p ?o }")
            threads = [
                threading.Thread(target=lambda: _swallow(url))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            # While the worker is saturated, the probe still answers.
            response = fetch(f"{server.base_url}/health")
            assert response.status == 200
            for thread in threads:
                thread.join(timeout=15)


def _swallow(url: str) -> None:
    try:
        fetch(url).read()
    except urllib.error.HTTPError:
        pass


class TestLoadShedding:
    AGG = ("SELECT (AVG(?v) AS ?mean) (COUNT(*) AS ?n) "
           "WHERE { ?s <http://example.org/value> ?v }")
    SEL = "SELECT ?s WHERE { ?s <http://example.org/value> ?v } LIMIT 2"

    def test_shed_approximate_and_recover(self):
        # The acceptance-criterion scenario: overload → approximate answers
        # with error bounds; load subsides → exact answers again.
        config = ServerConfig(
            workers=2, shed_budget_ms=5.0, shed_min_observations=4,
            shed_window=32, debug_delay_ms=20.0, approx_max_rows=50,
        )
        with ReproServer(build_store(400), config) as server:
            # Phase 1 — overload: slow interactive traffic blows the budget.
            for _ in range(8):
                fetch(sparql_url(server.base_url, self.SEL)).read()
            response = fetch(sparql_url(server.base_url, self.AGG))
            assert response.headers["X-Repro-Approximate"] == "1"
            assert response.headers["X-Repro-Tier"] in (
                "sampled", "aggressive"
            )
            rows_consumed = int(response.headers["X-Repro-Rows-Consumed"])
            assert 0 < rows_consumed <= 50
            assert int(response.headers["X-Repro-Estimated-Total"]) == 400
            bounds = json.loads(response.headers["X-Repro-Error-Bound"])
            assert set(bounds) == {"mean", "n"}
            assert bounds["mean"] > 0
            body = json.loads(response.read())
            assert body["x-repro"]["approximate"] is True
            assert body["x-repro"]["method"] == "sketch"
            (binding,) = body["results"]["bindings"]
            estimate = float(binding["mean"]["value"])
            # ±5 halfwidths covers the exact mean of the scrambled values
            exact_mean = sum(
                float((index * 7919) % 997) for index in range(400)
            ) / 400
            assert abs(estimate - exact_mean) <= 5 * bounds["mean"]

            # Phase 2 — recovery: fast traffic refills the p95 window.
            server.config.debug_delay_ms = 0.0
            for _ in range(40):  # > shed_window fast observations
                fetch(sparql_url(server.base_url, self.SEL)).read()
            tiers = []
            for _ in range(3):  # de-escalation is one tier per decision
                response = fetch(sparql_url(server.base_url, self.AGG))
                tiers.append(response.headers["X-Repro-Tier"])
                response.read()
            assert tiers[-1] == "exact"
            assert "X-Repro-Approximate" not in dict(response.headers)

            def accounted():  # a request is accounted after its last byte
                stats = json.loads(fetch(f"{server.base_url}/stats").read())
                return stats if stats["aggregate_served"] == 4 else None

            stats = wait_for(accounted)
            assert stats, "the four aggregates were never accounted"
            assert stats["aggregate_approximate"] >= 1
            assert 0 < stats["shed_ratio"] < 1

    def test_exact_tier_answers_aggregates_exactly(self, server):
        response = fetch(sparql_url(
            server.base_url,
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        ))
        assert response.headers["X-Repro-Tier"] == "exact"
        assert "X-Repro-Approximate" not in dict(response.headers)
        body = json.loads(response.read())
        assert body["results"]["bindings"][0]["n"]["value"] == "600"

    def test_small_streams_stay_exact_even_when_shedding(self):
        # Graceful degradation floor: if the whole stream fits inside the
        # shed-tier row budget, the answer is exact regardless of tier.
        config = ServerConfig(
            workers=1, shed_budget_ms=1.0, shed_min_observations=2,
            debug_delay_ms=10.0, approx_max_rows=10_000,
        )
        with ReproServer(build_store(20), config) as server:
            for _ in range(4):
                fetch(sparql_url(server.base_url, self.SEL)).read()
            response = fetch(sparql_url(
                server.base_url,
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            ))
            assert "X-Repro-Approximate" not in dict(response.headers)
            body = json.loads(response.read())
            assert body["results"]["bindings"][0]["n"]["value"] == "40"


class TestTenancy:
    def test_tenant_header_reaches_admission_accounting(self, server):
        fetch(
            sparql_url(server.base_url, "ASK { ?s ?p ?o }"),
            headers={"X-Repro-Tenant": "alice"},
        ).read()
        snapshot = server.admission.snapshot()
        assert snapshot.per_tenant_admitted.get("alice", 0) >= 1


class TestLifecycle:
    def test_stop_closes_listener(self):
        server = ReproServer(build_store(10), ServerConfig(workers=1))
        server.start()
        port = server.port
        server.stop()
        with pytest.raises(OSError):
            connection = socket.create_connection(("127.0.0.1", port),
                                                  timeout=0.5)
            connection.close()


class TestObservabilitySurface:
    def test_metrics_prometheus_exposition(self, server):
        # Generate at least one response first so counters exist.
        fetch(f"{server.base_url}/health").read()
        response = fetch(f"{server.base_url}/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
        assert "# TYPE server_responses_total counter" in text
        assert "server_admission_depth" in text
        assert "server_shed_tier" in text
        # exposition parses: every non-comment line is `name{labels} value`
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part
            float(value)

    def test_metrics_json_negotiation(self, server):
        fetch(f"{server.base_url}/health").read()
        body = json.loads(
            fetch(f"{server.base_url}/metrics",
                  accept="application/json").read()
        )
        assert any(key.startswith("server.responses") for key in body)

    def test_metrics_include_slo_burn_rate_per_tenant(self, server):
        query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"
        fetch(sparql_url(server.base_url, query),
              headers={"X-Repro-Tenant": "acme"}).read()
        text = fetch(f"{server.base_url}/metrics").read().decode()
        assert 'server_slo_burn_rate{' in text
        assert 'tenant="acme"' in text

    def test_debug_flight_index_and_dump(self, server):
        from repro.obs import OBS

        index = json.loads(fetch(f"{server.base_url}/debug/flight").read())
        assert set(index) >= {"dumps", "dump_count", "recorded_total"}
        OBS.querylog.dump("test-probe")
        index = json.loads(fetch(f"{server.base_url}/debug/flight").read())
        assert index["dumps"]
        sequence = index["dumps"][-1]["sequence"]
        body = fetch(
            f"{server.base_url}/debug/flight?seq={sequence}"
        ).read().decode()
        header = json.loads(body.splitlines()[0])
        assert header["flight_dump"] == sequence
        latest = fetch(
            f"{server.base_url}/debug/flight?seq=latest"
        ).read().decode()
        assert json.loads(latest.splitlines()[0])["flight_dump"] >= sequence

    def test_debug_flight_errors(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.base_url}/debug/flight?seq=999999")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.base_url}/debug/flight?seq=bogus")
        assert excinfo.value.code == 400

    def test_debug_trace_exports_this_servers_spans(self, server):
        from repro.obs import OBS

        OBS.configure(enabled=True)
        try:
            query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"
            fetch(sparql_url(server.base_url, query)).read()
            deadline = __import__("time").monotonic() + 5.0
            while True:
                body = fetch(
                    f"{server.base_url}/debug/trace"
                ).read().decode()
                if body.strip() or __import__("time").monotonic() > deadline:
                    break
                __import__("time").sleep(0.02)
            records = [json.loads(line)
                       for line in body.strip().splitlines()]
            assert records, "no spans exported"
            services = {
                record.get("attributes", {}).get("service")
                for record in records
                if record.get("parent_span_id") is None
            }
            assert services == {f"repro-server:{server.port}"}
        finally:
            OBS.configure(enabled=False)
            OBS.tracer.reset()

    def test_observability_routes_bypass_admission(self):
        # A saturated server must still answer its probes immediately.
        config = ServerConfig(workers=1, queue_capacity=1,
                              debug_delay_ms=200.0)
        with ReproServer(build_store(20), config) as busy:
            query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"
            threads = [
                threading.Thread(
                    target=lambda: _swallow(
                        sparql_url(busy.base_url, query))
                )
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for path in ("/health", "/stats", "/metrics",
                             "/debug/flight", "/debug/trace"):
                    assert fetch(busy.base_url + path).status == 200
            finally:
                for thread in threads:
                    thread.join(timeout=30)


def _swallow(url: str) -> None:
    try:
        fetch(url).read()
    except urllib.error.HTTPError:
        pass
