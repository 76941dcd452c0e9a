"""One accounting record per request, and what a response says about it.

``Server-Timing`` rides on every kind of answer with the stages stamped
before its head; the record written after the last byte counts each
request exactly once, however it was answered (an aborted stream and a 503
included); and tenant names off the wire are folded once, so no per-tenant
map or metric label grows past 32 of them plus ``other``.
"""

import http.client
import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro.obs import OBS, TIME_MS_BUCKETS
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import STAGES, ReproServer, ServerConfig
from repro.sparql import vectorized
from repro.store.memory import MemoryStore
from repro.workload.rdf_graphs import typed_entities
from tests.helpers import wait_for

EX = "http://example.org/"
VALUE = f"<{EX}value>"


def build_store(n: int = 200) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        store.add(Triple(IRI(f"{EX}item/{index}"), IRI(EX + "value"),
                         Literal(index)))
    return store


def sparql(query: str) -> str:
    return "/sparql?" + urllib.parse.urlencode({"query": query})


def timed_get(port: int, target: str, headers: dict | None = None):
    """``(response, body, client-observed ms)`` of one GET."""
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", target, headers=headers or {})
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return response, body, (time.perf_counter() - started) * 1e3


def server_timing(response) -> list[tuple[str, float]]:
    header = response.getheader("Server-Timing")
    assert header, dict(response.getheaders())
    stages = []
    for entry in header.split(", "):
        name, _, duration = entry.partition(";dur=")
        stages.append((name, float(duration)))
    return stages


def answered_total(server) -> int:
    """Requests finished so far (counted at the start of ``_finish``)."""
    return sum(server.stats()["responses_by_status"].values())


# -- Server-Timing -------------------------------------------------------------


AGGREGATE = f"SELECT (COUNT(?s) AS ?n) WHERE {{ ?s {VALUE} ?v . FILTER(?v > 3) }}"
DISTINCT = f"SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE {{ ?s {VALUE} ?v }}"
ASK = f"ASK {{ ?s {VALUE} 7 }}"  # asked once by the fixture: a hit after
LISTING = f"SELECT ?s ?v WHERE {{ ?s {VALUE} ?v }}"


@pytest.fixture(scope="module")
def shedding_server():
    # Any observed latency is over budget: after one request, aggregates
    # are shed; COUNT(DISTINCT) stays exact.
    config = ServerConfig(workers=2, shed_budget_ms=1e-6,
                          shed_min_observations=1, approx_max_rows=8)
    with ReproServer(build_store(), config) as instance:
        assert timed_get(instance.port, sparql(ASK))[0].status == 200
        # accounted (its record comes last) before any test counts
        assert wait_for(lambda: OBS.querylog.records(service=instance.service))
        yield instance


@pytest.mark.parametrize("kind, target, status, first_stages", [
    ("probe", "/health", 200, ["read", "execute"]),
    ("exact", sparql(f"ASK {{ ?s {VALUE} 8 }}"), 200,
     ["read", "queue", "parse", "execute", "encode"]),
    ("cached", sparql(ASK), 200, ["read", "queue", "parse", "execute", "encode"]),
    ("streamed", sparql(LISTING), 200, ["read", "queue", "parse"]),
    ("aggregate", sparql(DISTINCT), 200,
     ["read", "queue", "parse", "execute", "encode"]),
    ("shed", sparql(AGGREGATE), 200,
     ["read", "queue", "parse", "execute", "encode"]),
    ("parse error", sparql("SELEKT"), 400, ["read", "queue"]),
    ("not acceptable", sparql(f"SELECT ?v WHERE {{ ?s {VALUE} ?v }} LIMIT 3"),
     406, ["read", "queue", "parse"]),
    ("unknown path", "/nope", 404, ["read"]),
])
def test_server_timing_on_every_kind_of_answer(
    shedding_server, kind, target, status, first_stages
):
    server = shedding_server
    trace_id = kind.encode().hex()[:16]  # names this request's record
    headers = {"X-Repro-Trace": trace_id, "X-Repro-Span": "ab" * 4}
    if kind == "not acceptable":
        headers["Accept"] = "image/png"
    latency = OBS.metrics.histogram("obs.interaction_ms", TIME_MS_BUCKETS,
                                    interaction_class="interactive")
    judged, judged_ms = latency.count, latency.sum
    answered = answered_total(server)
    response, _, client_ms = timed_get(server.port, target, headers)
    assert response.status == status
    assert (response.getheader("X-Repro-Cache") == "hit") == (kind == "cached")
    if kind == "shed":
        assert response.getheader("X-Repro-Approximate") == "1"
    if kind == "aggregate":
        assert response.getheader("X-Repro-Tier") == "exact"
    stages = server_timing(response)
    assert [name for name, _ in stages] == first_stages
    assert all(duration >= 0 for _, duration in stages)
    assert sum(duration for _, duration in stages) <= client_ms
    # One query-log record for a request to an admitted route, written
    # after the last byte with the stamps as the response showed them plus
    # the last one, and judged once by their total after the read.
    if kind in ("probe", "unknown path"):
        assert wait_for(lambda: answered_total(server) > answered)
        assert OBS.querylog.records(trace_id=trace_id) == []
        return
    wait_for(lambda: OBS.querylog.records(trace_id=trace_id))
    (record,) = OBS.querylog.records(trace_id=trace_id)
    assert (record.route, record.status) == ("server.sparql", status)
    assert [name for name, _ in record.stages] == first_stages + [
        "stream" if kind == "streamed" else "write"]
    for (_, ms), (_, shown) in zip(record.stages, stages):
        assert ms == pytest.approx(shown, abs=1e-3)
    assert record.latency_ms == pytest.approx(
        sum(ms for _, ms in record.stages[1:]))
    assert latency.count == judged + 1
    assert latency.sum == pytest.approx(judged_ms + record.latency_ms)
    assert record.cache_hit == (kind == "cached")
    if kind == "shed":
        assert record.tier == response.getheader("X-Repro-Tier")
        assert record.strategy.endswith("+sample")
        assert set(record.shed) == {"p95_ms", "n", "burn", "peak_burn"}


# -- exactly one record per request ----------------------------------------------


class FailingScans:
    """The store, except that a scan raises on its ``fail_at``-th batch."""

    def __init__(self, store) -> None:
        self._store = store
        self.dictionary = store.dictionary
        self.fail_at: int | None = None

    def match_id_batches(self, s, p, o, batch_size=4096):
        for index, batch in enumerate(
            self._store.match_id_batches(s, p, o, 8), start=1
        ):
            if index == self.fail_at:
                raise RuntimeError("scan failed")
            yield batch

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, name):
        return getattr(self._store, name)


def stage_counts(server) -> dict[str, int]:
    return {
        stage: OBS.metrics.histogram(
            "server.stage_ms", TIME_MS_BUCKETS, service=server.service,
            stage=stage,
        ).count
        for stage in STAGES
    }


def test_every_request_is_accounted_exactly_once(monkeypatch):
    monkeypatch.setattr(vectorized, "FIRST_BATCH_SIZE", 256)
    double = FailingScans(MemoryStore(typed_entities(300, seed=7)))
    config = ServerConfig(workers=1, queue_capacity=1, debug_delay_ms=300.0)
    with ReproServer(double, config) as server:
        port, before = server.port, stage_counts(server)
        # 1. a stream that fails after its head went out
        double.fail_at = 3
        listing = "SELECT ?s ?v WHERE { ?s <http://example.org/data/numeric0> ?v }"
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            sock.sendall(f"GET {sparql(listing)} HTTP/1.1\r\nHost: x\r\n\r\n"
                         .encode())
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        finally:
            sock.close()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert not raw.endswith(b"0\r\n\r\n")
        double.fail_at = None
        # the client saw the close, which comes before the accounting: wait
        # for it, or the in-flight wait below could see this request
        assert wait_for(lambda: not server.stats()["inflight"])
        # 2. a full queue: one request on the worker, one queued, one refused
        background = [
            threading.Thread(target=lambda: timed_get(port, sparql("ASK {}")))
            for _ in range(2)
        ]
        background[0].start()
        assert wait_for(lambda: server.stats()["inflight"])
        background[1].start()
        assert wait_for(lambda: server.admission.depth == 1)
        assert timed_get(port, sparql("ASK {}"))[0].status == 503
        for thread in background:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in background)
        # 3. answered in the read stage: a 404 and a probe
        assert timed_get(port, "/nope")[0].status == 404
        assert timed_get(port, "/health")[0].status == 200
        requests = 6
        assert wait_for(lambda: sum(
            server.stats()["responses_by_status"].values()) == requests)
        # what /metrics and /stats say (each scrape is finished after it
        # has answered, so it counts in the next one, not in itself)
        _, body, _ = timed_get(port, "/metrics",
                               {"Accept": "application/json"})
        snapshot = json.loads(body)
        _, body, _ = timed_get(port, "/stats")
        by_status = json.loads(body)["responses_by_status"]
        # one query-log record per request to an admitted route: the failed
        # stream, the two ASKs and the refused one; none for the rest
        assert wait_for(lambda: len(OBS.querylog.records(
            service=server.service)) >= 4)
        records = OBS.querylog.records(service=server.service)
    assert sorted((r.route, r.status) for r in records) == [
        ("server.sparql", 200)] * 3 + [("server.sparql", 503)]
    (failed,) = [r for r in records if not r.complete]
    assert failed.form == "SELECT" and failed.stages[-1][0] == "stream"
    counts = {
        stage: snapshot[
            f"server.stage_ms{{service={server.service},stage={stage}}}"
        ]["count"] - before[stage]
        for stage in STAGES
    }
    assert by_status == {"200": 5, "404": 1, "503": 1}  # + the /metrics scrape
    assert counts["read"] == requests
    assert counts["write"] + counts["stream"] == requests
    assert counts["stream"] == 1  # the aborted one
    assert counts["queue"] == 3  # what a worker took: the stream, the two ASKs


# -- tenants off the wire ---------------------------------------------------------


def test_a_thousand_tenants_leave_bounded_maps():
    with ReproServer(build_store(), ServerConfig(workers=2)) as server:
        target = sparql(ASK)
        for index in range(1000):
            response, _, _ = timed_get(server.port, target,
                                       {"X-Repro-Tenant": f"tenant-{index}"})
            assert response.status == 200
        stats = json.loads(timed_get(server.port, "/stats")[1])
        admission = stats["admission"]
        maps = {
            "per_tenant_admitted": admission["per_tenant_admitted"],
            "per_tenant_rejected": admission["per_tenant_rejected"],
            "per_tenant_depth": admission["per_tenant_depth"],
            "inflight": stats["inflight"],
            "slo": stats["slo"],
        }
        for name, tenants in maps.items():
            assert len(tenants) <= 33, name
        admitted = admission["per_tenant_admitted"]
        assert len(admitted) == 33 and admitted["other"] == 1000 - 32
        assert admitted["tenant-0"] == 1 and "tenant-999" not in admitted
        exposition = timed_get(server.port, "/metrics")[1].decode("utf-8")
        service = f'service="{server.service}"'
        for family in ("server_inflight{", "server_slo_burn_rate{"):
            labels = {
                line.split("tenant=")[1].split('"')[1]
                for line in exposition.splitlines()
                if line.startswith(family) and service in line
            }
            assert len(labels) <= 33, family
            # (in-flight gauges exist only for tenants with work in flight)
            assert labels or family == "server_inflight{"
