"""The server's workload surface: /debug/queries, engine counters in
/stats and /metrics, and query-log records for every serving path."""

import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.obs import INTERACTIVE, OBS
from repro.obs.querylog import QueryRecord
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.store.memory import MemoryStore
from tests.helpers import wait_for

EX = "http://example.org/"
VALUE = IRI(EX + "value")
LABEL = IRI(EX + "label")

SELECT = (
    "SELECT ?s ?v WHERE { ?s <http://example.org/value> ?v } LIMIT 5"
)


def build_store(n: int = 200) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, VALUE, Literal(float(index % 17))))
        store.add(Triple(subject, LABEL, Literal(f"item {index}")))
    return store


def fetch(url: str, headers: dict | None = None):
    request = urllib.request.Request(url)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    return urllib.request.urlopen(request, timeout=10)


def sparql_url(base: str, query: str, **params) -> str:
    params["query"] = query
    return f"{base}/sparql?" + urllib.parse.urlencode(params)


def debug_records(base: str, expect: int = 0, **params) -> list[dict]:
    """/debug/queries, polled until it holds ``expect`` records: each is
    written after its request's last byte."""
    url = f"{base}/debug/queries"
    if params:
        url += "?" + urllib.parse.urlencode(params)

    def records():
        body = fetch(url).read().decode("utf-8")
        return [json.loads(line) for line in body.splitlines() if line]

    def enough():
        found = records()
        return found if len(found) >= expect else None

    return (wait_for(enough) or records()) if expect else records()


@pytest.fixture()
def server():
    prior = OBS.enabled
    OBS.reset()
    with ReproServer(build_store(), ServerConfig(workers=2)) as instance:
        yield instance
    OBS.reset()
    OBS.configure(enabled=prior)


class TestDebugQueries:
    def test_served_queries_appear_with_attribution(self, server):
        fetch(sparql_url(server.base_url, SELECT),
              headers={"X-Repro-Tenant": "alice"})
        records = debug_records(server.base_url, expect=1)
        assert records, "no query-log records for served traffic"
        record = records[-1]
        assert record["form"] == "SELECT"
        assert record["tenant"] == "alice"
        assert record["class"] == "interactive"
        assert record["tier"] == "exact"
        assert record["service"] == f"repro-server:{server.port}"
        assert record["digest"]
        assert record["latency_ms"] > 0
        assert (record["route"], record["status"]) == ("server.sparql", 200)
        assert [stage for stage, _ in record["stages"]] == [
            "read", "queue", "parse", "stream"]

    def test_filters(self, server):
        fetch(sparql_url(server.base_url, SELECT, tenant="t1"))
        fetch(sparql_url(server.base_url, "ASK { ?s ?p ?o }",
                         tenant="t2"))
        debug_records(server.base_url, expect=2)
        assert all(
            r["tenant"] == "t1"
            for r in debug_records(server.base_url, tenant="t1")
        )
        t1 = debug_records(server.base_url, tenant="t1")
        assert len(t1) == 1
        by_digest = debug_records(server.base_url, digest=t1[0]["digest"])
        assert len(by_digest) == 1 and by_digest[0]["tenant"] == "t1"
        assert debug_records(server.base_url, tenant="nobody") == []
        assert len(debug_records(server.base_url, limit="1")) == 1
        future = t1[0]["ts"] + 10_000
        assert debug_records(server.base_url, since=str(future)) == []

    def test_bad_since_is_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{server.base_url}/debug/queries?since=tomorrow")
        assert err.value.code == 400

    def test_cache_hit_recorded_with_zeroed_counters(self):
        # The workers share one answer cache: the second request must hit.
        prior = OBS.enabled
        OBS.reset()
        with ReproServer(
            build_store(), ServerConfig(workers=4)
        ) as single:
            url = sparql_url(single.base_url, SELECT)
            fetch(url).read()  # the entry is there once the last byte is
            first = debug_records(single.base_url, expect=1)
            response = fetch(url)
            assert response.headers.get("X-Repro-Cache") == "hit"
            records = debug_records(single.base_url, expect=len(first) + 1)
            assert len(records) == len(first) + 1
            hit = records[-1]
            assert hit["cache_hit"] is True
            assert hit["strategy"] == "cached"
            assert hit["store_lookups"] == 0 and hit["scan_rows"] == 0
            assert hit["digest"] == records[-2]["digest"]
        OBS.reset()
        OBS.configure(enabled=prior)

    def test_trace_id_matches_request_trace(self, server):
        OBS.configure(enabled=True)
        trace_id = "fe" * 8
        fetch(sparql_url(server.base_url, SELECT),
              headers={"X-Repro-Trace": trace_id,
                       "X-Repro-Span": "ab" * 4})
        records = debug_records(server.base_url, expect=1)
        assert records[-1]["trace_id"] == trace_id

    def test_trace_id_is_the_clients_when_tracing_is_off(self, server):
        OBS.configure(enabled=False)
        trace_id = "fe" * 8
        fetch(sparql_url(server.base_url, SELECT),
              headers={"X-Repro-Trace": trace_id,
                       "X-Repro-Span": "ab" * 4})
        fetch(sparql_url(server.base_url, "ASK { ?s ?p ?o }"))
        assert len(debug_records(server.base_url, expect=2)) == 2
        (record,) = debug_records(server.base_url, trace=trace_id)
        assert record["trace_id"] == trace_id and record["form"] == "SELECT"


class TestStatsAndMetrics:
    def test_stats_exposes_engine_and_querylog_sections(self, server):
        fetch(sparql_url(server.base_url, SELECT))
        debug_records(server.base_url, expect=1)
        stats = json.loads(fetch(f"{server.base_url}/stats").read())
        engine = stats["engine"]
        assert engine["store_lookups"] > 0 or engine["scan_rows"] > 0
        assert {"scan_batches", "scan_rows", "solutions"} <= set(engine)
        querylog = stats["querylog"]
        assert querylog["recorded_total"] >= 1
        assert querylog["depth"] >= 1
        assert querylog["dropped"] == 0

    def test_metrics_gauges(self, server):
        fetch(sparql_url(server.base_url, SELECT))
        exposition = fetch(
            f"{server.base_url}/metrics"
        ).read().decode("utf-8")
        assert "querylog_depth" in exposition
        assert "querylog_dropped" in exposition
        assert "engine_store_lookups" in exposition
        assert "engine_scan_rows" in exposition

    def test_mirror_written_when_dir_configured(
        self, server, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_QUERYLOG_DIR", str(tmp_path))
        fetch(sparql_url(server.base_url, SELECT))
        debug_records(server.base_url, expect=1)
        stats = json.loads(fetch(f"{server.base_url}/stats").read())
        mirror = stats["querylog"]["mirror_path"]
        assert mirror is not None
        lines = open(mirror, encoding="utf-8").read().splitlines()
        assert lines and json.loads(lines[-1])["form"] == "SELECT"


class TestOneHistory:
    def test_one_request_is_one_record(self, server):
        """A request is written once, into the query log, whether or not
        the engine's own emission is on."""
        OBS.querylog.enabled = False
        before = OBS.querylog.recorded_total
        fetch(sparql_url(server.base_url, SELECT)).read()
        assert wait_for(lambda: OBS.querylog.recorded_total > before)
        fetch(f"{server.base_url}/health").read()  # a probe writes none
        time.sleep(0.1)
        assert OBS.querylog.recorded_total == before + 1

    def test_over_budget_request_is_the_dumps_offender(self, server):
        server.policy.set_budget(INTERACTIVE, 1e-6)
        trace_id = "cd" * 8
        fetch(sparql_url(server.base_url, SELECT),
              headers={"X-Repro-Trace": trace_id,
                       "X-Repro-Span": "ab" * 4}).read()

        def latest():
            try:
                body = fetch(f"{server.base_url}/debug/flight?seq=latest")
            except urllib.error.HTTPError:
                return None  # not written yet: after the last byte
            return body.read().decode("utf-8").splitlines()

        lines = wait_for(latest)
        header = json.loads(lines[0])
        assert header["reason"] == "budget:interactive:server.sparql"
        offending = header["offending"]
        assert (offending["route"], offending["status"]) == (
            "server.sparql", 200)
        assert offending["trace_id"] == trace_id
        assert offending["violated"] is True
        stages = [stage for stage, _ in offending["stages"]]
        assert stages[:3] == ["read", "queue", "parse"]
        assert stages[-1] in ("write", "stream")
        assert "server.sparql" in header["offending_span_text"]
        records = [QueryRecord.from_dict(json.loads(line))
                   for line in lines[1:]]
        assert len(records) == header["entries"]
        assert records[-1].to_dict() == offending
