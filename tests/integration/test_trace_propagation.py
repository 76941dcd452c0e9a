"""Cross-process tracing end to end: one federated query over two live
loopback servers exports as ONE stitched span tree.

This is the tentpole acceptance test: the client runs a traced federated
query through two :class:`ReproServer` instances over real sockets; each
server continues the client's trace (``X-Repro-Trace``/``X-Repro-Span``),
exports its spans at ``/debug/trace``, and
:func:`repro.obs.export.stitch_jsonl` reassembles the three per-process
exports into a single tree — every remote ``server.sparql`` interaction
parented under the client-side ``remote.call`` wire span that caused it,
all sharing one trace id.

Also covered here: per-tenant SLO burn feeding the shedder end to end —
a tenant made slow via ``debug_delay_tenant`` burns its error budget and
is degraded while the well-behaved tenant keeps exact answers.
"""

import json
import time
import urllib.parse
import urllib.request

import pytest

from repro.obs import OBS
from repro.obs.export import (
    render_stitched_tree,
    spans_to_jsonl,
    stitch_jsonl,
)
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.server.remote import RemoteEndpointSource
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
NAME = IRI(EX + "name")


def build_store(tag: str, n: int) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        store.add(Triple(IRI(f"{EX}{tag}/{index}"), NAME,
                         Literal(f"{tag} {index}")))
    return store


def fetch(url: str, headers: dict | None = None) -> tuple[bytes, dict]:
    request = urllib.request.Request(url)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read(), dict(response.headers)


def wait_for_trace(base_url: str, minimum: int = 1,
                   timeout_s: float = 5.0) -> str:
    """Poll /debug/trace until the worker has recorded its root spans."""
    deadline = time.monotonic() + timeout_s
    while True:
        body = fetch(f"{base_url}/debug/trace")[0].decode()
        if len(body.strip().splitlines()) >= minimum:
            return body
        if time.monotonic() > deadline:
            return body
        time.sleep(0.02)


@pytest.fixture()
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior, sample_rate=1.0)


class TestStitchedFederatedTrace:
    def test_single_trace_across_two_servers(self, clean_obs):
        OBS.configure(enabled=True)
        with ReproServer(build_store("a", 5), ServerConfig(workers=2)) as a, \
                ReproServer(build_store("b", 7),
                            ServerConfig(workers=2)) as b:
            federated = FederatedStore([
                ("a", RemoteEndpointSource(a.base_url)),
                ("b", RemoteEndpointSource(b.base_url)),
            ])
            with OBS.interaction("client.federated", "interactive",
                                 service="client"):
                assert federated.count((None, NAME, None)) == 12

            client_spans = [
                span for span in OBS.tracer.recorder.spans()
                if span.attributes.get("service") == "client"
            ]
            assert len(client_spans) == 1
            client_jsonl = spans_to_jsonl(client_spans)
            a_jsonl = wait_for_trace(a.base_url)
            b_jsonl = wait_for_trace(b.base_url)

            # One trace id across all three per-process exports.
            trace_ids = {
                json.loads(line)["trace_id"]
                for text in (client_jsonl, a_jsonl, b_jsonl)
                for line in text.strip().splitlines()
            }
            assert len(trace_ids) == 1

            # Stitched: one tree, remote interactions under the client's
            # wire-call spans, operator detail from both servers inside.
            roots = stitch_jsonl(client_jsonl, a_jsonl, b_jsonl)
            assert len(roots) == 1
            root = roots[0]
            assert root.name == "client.federated"
            wire_calls = root.find("remote.call")
            assert len(wire_calls) == 2
            for wire in wire_calls:
                assert [c.name for c in wire.children] == ["server.sparql"]
            remote_services = {
                wire.children[0].attributes.get("service")
                for wire in wire_calls
            }
            assert remote_services == {
                f"repro-server:{a.port}", f"repro-server:{b.port}",
            }
            # Remote operator time is visible from the client side.
            assert root.find("sparql.query")

            text = render_stitched_tree(root)
            assert text.count("[wire ->") == 2
            assert f"[wire -> repro-server:{a.port}]" in text

    def test_querylog_records_resolve_in_stitched_trace(self, clean_obs):
        """Each server's /debug/queries records for a federated query carry
        the federation's trace id — the workload log joins the stitched
        trace tree, so a slow record is one lookup away from its spans."""
        OBS.configure(enabled=True)
        with ReproServer(build_store("a", 5), ServerConfig(workers=2)) as a, \
                ReproServer(build_store("b", 7),
                            ServerConfig(workers=2)) as b:
            federated = FederatedStore([
                ("a", RemoteEndpointSource(a.base_url)),
                ("b", RemoteEndpointSource(b.base_url)),
            ])
            with OBS.interaction("client.federated", "interactive",
                                 service="client") as act:
                assert federated.count((None, NAME, None)) == 12
            trace_id = act._span.trace_id

            for server in (a, b):
                wait_for_trace(server.base_url)
                body = fetch(f"{server.base_url}/debug/queries")[0].decode()
                records = [
                    json.loads(line)
                    for line in body.strip().splitlines()
                ]
                assert records, f"no query-log records on {server.port}"
                assert all(r["trace_id"] == trace_id for r in records)
                assert all(
                    r["service"] == f"repro-server:{server.port}"
                    for r in records
                )

            # ... and that id is exactly the stitched tree's trace.
            client_spans = [
                span for span in OBS.tracer.recorder.spans()
                if span.attributes.get("service") == "client"
            ]
            roots = stitch_jsonl(
                spans_to_jsonl(client_spans),
                wait_for_trace(a.base_url),
                wait_for_trace(b.base_url),
            )
            assert len(roots) == 1
            assert roots[0].trace_id == trace_id

    def test_untraced_federation_still_works(self, clean_obs):
        # Tracing off: no headers on the wire, no spans recorded, and the
        # query path is unaffected.
        with ReproServer(build_store("a", 3), ServerConfig(workers=2)) as a:
            source = RemoteEndpointSource(a.base_url)
            assert source.count((None, None, None)) == 3
            assert OBS.tracer.recorder.spans() == []
            assert wait_for_trace(a.base_url, minimum=1,
                                  timeout_s=0.3).strip() == ""


class TestSloShedsTheOffender:
    def test_burning_tenant_degrades_before_healthy_tenant(self, clean_obs):
        """The per-tenant SLO loop end to end: only the slow tenant sheds.

        ``debug_delay_tenant`` makes every query from tenant "noisy" blow
        the 100 ms interactive budget; its burn rate crosses the shed
        threshold and its aggregates get escalated off the exact tier,
        while tenant "quiet" — same server, same instant — still gets
        exact answers.  The global shedder budget is kept loose so the
        degradation is attributable to burn-rate escalation alone.
        """
        config = ServerConfig(
            workers=2,
            shed_budget_ms=10_000.0,
            debug_delay_ms=150.0,
            debug_delay_tenant="noisy",
            approx_max_rows=10,
        )
        aggregate = urllib.parse.urlencode({
            "query": "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
        })
        with ReproServer(build_store("x", 400), config) as server:
            url = f"{server.base_url}/sparql?{aggregate}"
            # Burn "noisy"'s error budget: every one of these blows the
            # interactive budget by construction. (Not with the aggregate
            # itself: its exact answer would be kept, and a kept answer is
            # served whatever the tier.)
            listing = urllib.parse.urlencode(
                {"query": "SELECT ?s WHERE { ?s ?p ?o } LIMIT 2"})
            for _ in range(6):
                fetch(f"{server.base_url}/sparql?{listing}",
                      headers={"X-Repro-Tenant": "noisy"})
            assert server.policy.burn_rate("noisy") >= 1.0
            assert server.policy.burn_rate("quiet") == 0.0

            _, noisy_headers = fetch(
                url, headers={"X-Repro-Tenant": "noisy"})
            _, quiet_headers = fetch(
                url, headers={"X-Repro-Tenant": "quiet"})
            assert noisy_headers["X-Repro-Tier"] == "sampled"
            assert noisy_headers.get("X-Repro-Approximate") == "1"
            assert quiet_headers["X-Repro-Tier"] == "exact"
            assert "X-Repro-Approximate" not in quiet_headers

            stats = json.loads(fetch(f"{server.base_url}/stats")[0])
            assert stats["shedding"]["burn_escalations"] >= 1
            assert stats["slo"]["noisy"]["burn_rate"] >= 1.0
            assert stats["slo"]["noisy"]["violations"] >= 6
