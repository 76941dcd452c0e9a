"""The probe routes: liveness, serving counters, metrics, and the debug
surface, as plain functions of the server and the request context.

They run in the read stage, without an admission slot, so an overloaded
server stays diagnosable *while* overloaded. Each returns ``(status,
content type, body)``:

* ``/health`` — liveness plus the overload view (shed tier, queue depth,
  per-tenant inflight);
* ``/stats`` — :meth:`ReproServer.stats` as JSON;
* ``/metrics`` — every process metric, Prometheus text by default, the
  JSON registry snapshot for ``Accept: application/json``; serving state
  is refreshed into gauges on each scrape;
* ``/debug/flight`` — the flight recorder's index, or one dump's JSONL
  (``?seq=N`` / ``?seq=latest``);
* ``/debug/trace`` — this server's finished root spans as JSONL, ready for
  :func:`repro.obs.export.stitch_jsonl`;
* ``/debug/queries`` — the query log as JSONL, one record per request,
  filterable with ``?tenant=`` / ``?digest=`` / ``?trace=<id>`` /
  ``?since=<unix-ts>`` / ``?limit=`` (``?all=1`` lifts the this-service
  filter).
"""

from __future__ import annotations

import json

from ..obs import OBS
from ..obs.export import render_prometheus, spans_to_jsonl
from .http import HttpRequest

NDJSON = "application/x-ndjson"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


def json_reply(payload: object, status: int = 200):
    return status, "application/json", json.dumps(
        payload, sort_keys=True
    ).encode("utf-8")


def int_param(request: HttpRequest, name: str, default: int) -> int:
    """An integer parameter (query string, then form body); ``default``
    when it is absent or malformed."""
    try:
        return int(request.param(name, default))
    except ValueError:
        return default


def health(server, ctx):
    stats = server.stats()
    return json_reply({
        "status": "ok",
        "service": server.service,
        "shed_tier": stats["shedding"]["tier"],
        "shed_tier_name": stats["shedding"]["tier_name"],
        "queue_depth": stats["admission"]["depth"],
        "per_tenant_depth": stats["admission"]["per_tenant_depth"],
        "inflight": stats["inflight"],
    })


def stats(server, ctx):
    return json_reply(server.stats())


def refresh_metrics(server) -> None:
    """Push current serving state into the process metrics registry.

    Gauges are scrape-time snapshots (Prometheus semantics): admission
    depth, shed tier, per-tenant inflight and SLO burn rate, the query
    log, the engines' counters and the answer cache.
    """
    state = server.stats()
    log = state["querylog"]
    gauges = {
        "server.admission.depth": state["admission"]["depth"],
        "server.shed.tier": state["shedding"]["tier"],
        "querylog.depth": log["depth"],
        "querylog.dropped": log["dropped"],
        "querylog.mirror_errors": log["mirror_errors"],
        **{f"engine.{name}": value for name, value in state["engine"].items()},
        **{f"server.cache.{name}": value
           for name, value in state["cache"].items()},
    }
    metrics, service = OBS.metrics, server.service
    for name, value in gauges.items():
        metrics.gauge(name, service=service).set(float(value))
    # Tenants were folded in the read stage: these labels are bounded.
    for tenant, count in state["inflight"].items():
        metrics.gauge("server.inflight", service=service,
                      tenant=tenant).set(float(count))
    for tenant, slo in state["slo"].items():
        metrics.gauge("server.slo.burn_rate", service=service,
                      tenant=tenant).set(slo["burn_rate"])


def metrics(server, ctx):
    refresh_metrics(server)
    if "application/json" in ctx.request.header("accept", "").lower():
        return json_reply(OBS.metrics.snapshot())
    return 200, PROMETHEUS, render_prometheus(OBS.metrics).encode("utf-8")


def flight(server, ctx):
    dumps = OBS.flight.dumps()
    seq = ctx.request.query.get("seq")
    if seq is None:
        return json_reply({
            "recorded_total": OBS.flight.recorded_total,
            "dump_count": OBS.flight.dump_count,
            "dumps": [
                {
                    "sequence": dump.sequence,
                    "reason": dump.reason,
                    "entries": len(dump.entries),
                }
                for dump in dumps
            ],
        })
    if seq == "latest":
        chosen = dumps[-1] if dumps else None
    else:
        try:
            wanted = int(seq)
        except ValueError:
            return json_reply(
                {"error": "seq must be an integer or `latest`"}, 400
            )
        chosen = next(
            (dump for dump in dumps if dump.sequence == wanted), None
        )
    if chosen is None:
        return json_reply({"error": "no such flight dump"}, 404)
    return 200, NDJSON, chosen.to_jsonl().encode("utf-8")


def queries(server, ctx):
    """The query log as JSONL: what this server actually executed.

    Filtered to this instance's records by default (several servers can
    share one process in tests); ``?all=1`` lifts that.
    """
    query = ctx.request.query
    since = None
    if query.get("since") is not None:
        try:
            since = float(query["since"])
        except ValueError:
            return json_reply({"error": "since must be a UNIX timestamp"}, 400)
    limit = int_param(ctx.request, "limit", 200)
    records = OBS.querylog.records(
        tenant=query.get("tenant"),
        digest=query.get("digest"),
        trace_id=query.get("trace"),
        since=since,
        service=None if query.get("all") else server.service,
    )
    if limit > 0:
        records = records[-limit:]
    body = "".join(
        json.dumps(record.to_dict(), sort_keys=True) + "\n"
        for record in records
    )
    return 200, NDJSON, body.encode("utf-8")


def trace(server, ctx):
    """This server's finished root spans as JSONL, stitch-ready.

    Filtered by the ``service`` attribute: when several servers share one
    process (in-process federation tests) each still exports only its own
    spans, as separate processes would.
    """
    spans = [
        span for span in OBS.tracer.recorder.spans()
        if span.attributes.get("service") == server.service
    ]
    return 200, NDJSON, spans_to_jsonl(spans).encode("utf-8")
