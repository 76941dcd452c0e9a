"""``/debug/trace`` on a long-running traced server shows new requests."""

import json
import time
import urllib.request

from repro.obs import OBS
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.store.memory import MemoryStore


def test_latest_request_is_exported_past_the_span_bound():
    store = MemoryStore()
    store.add(Triple(IRI("http://example.org/a"), IRI("http://example.org/p"),
                     Literal("x")))
    OBS.configure(enabled=True, max_spans=4)
    try:
        with ReproServer(store, ServerConfig(workers=2)) as server:
            trace_ids = [f"{index + 1:016x}" for index in range(10)]
            for trace_id in trace_ids:
                request = urllib.request.Request(
                    f"{server.base_url}/sparql?query=ASK%20%7B%7D",
                    headers={"X-Repro-Trace": trace_id,
                             "X-Repro-Span": "00000000000000aa"},
                )
                urllib.request.urlopen(request, timeout=10).read()
            deadline = time.monotonic() + 5.0
            while True:  # the span closes just after the response's bytes
                body = urllib.request.urlopen(
                    f"{server.base_url}/debug/trace", timeout=10
                ).read().decode()
                exported = {json.loads(line)["trace_id"]
                            for line in body.splitlines() if line.strip()}
                if trace_ids[-1] in exported or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
        assert trace_ids[-1] in exported
        assert trace_ids[0] not in exported
        assert OBS.tracer.recorder.dropped >= 6
    finally:
        OBS.configure(enabled=False, max_spans=10_000)
        OBS.tracer.reset()
