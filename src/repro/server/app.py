"""The SPARQL 1.1 Protocol endpoint: a route table and a list of stages.

A request is one :class:`RequestContext` flowing through stages, each of
which stamps the monotonic time it ended: **read** (one ``selectors`` loop
owns the listening socket and every connection still being read; probes,
unknown paths and wrong methods are answered right there), **queue** (the
:class:`FairAdmissionQueue`), **parse** / **execute** / **encode** (the
route's handler, on a worker), and **write** — or **stream** for a chunked
answer. The stamps taken before a response head goes out travel in it as a
``Server-Timing`` header; after the last byte :meth:`ReproServer._finish`
accounts the request once, with one total, and writes its one query-log
record from the context (the engine's runs inside the request add into
it). ``ROUTES`` is everything the server answers; DESIGN.md, *Serving*,
has the read stage's deadline and bound and where the shed and SLO clocks
start.

Degradation order under load: an answer kept in the one answer cache
(:mod:`repro.sparql.cached`, every exact answer) is served whatever the
tier; the shed tiers answer the other aggregates they can from a uniform
sample (:mod:`repro.server.sketch`, the one approximate path); only a full
admission queue is answered 503 + ``Retry-After``. It never buffers
without bound and it never silently drops a request.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from ..obs import (
    INTERACTIVE,
    NAVIGATION,
    NOOP_SPAN,
    OBS,
    TIME_MS_BUCKETS,
    TraceContext,
    record_error,
)
from ..obs.metrics import BoundedLabelSet
from ..obs.querylog import Runs
from ..rdf.terms import IRI
from ..sparql.cached import (
    CSV_TYPE,
    JSON_TYPE,
    STREAMED,
    TABLE_TYPE,
    TSV_TYPE,
    Answer,
    CachedQueryEngine,
    encode_select,
)
from ..sparql.eval import QueryEngine
from ..sparql.lexer import SparqlSyntaxError
from ..sparql.nodes import DescribeQuery, Query, SelectQuery
from ..sparql.parser import parse_query
from ..store.base import TripleSource
from . import explore, probes
from .admission import FairAdmissionQueue
from .http import (
    STATUS_REASONS,
    HttpError,
    HttpRequest,
    StreamAborted,
    read_request,
    write_chunked,
    write_response,
)
from .probes import int_param, json_reply
from .reader import READ_TIMEOUT_S, TICK_S, read_loop
from .shedding import AGGRESSIVE, EXACT, TIER_NAMES, LoadShedder
from .sketch import (
    aggregate_shape,
    build_sketch_bundle,
    note_bundle,
    progressive_lines,
    shed_answer,
)

__all__ = ["ServerConfig", "ReproServer", "RequestContext", "ROUTES"]

# What no deployment has needed to change: the tenant of a request that
# names none, and the Retry-After of a 503 (the read deadline is the read
# stage's; the shed tiers' hysteresis and the confidence of approximate
# answers are the defaults of ``LoadShedder`` and :mod:`repro.server.sketch`).
DEFAULT_TENANT = "public"
RETRY_AFTER = {"Retry-After": "1"}
OVERLOADED = "server overloaded, retry later"
LISTEN_BACKLOG = 128

STAGES = ("read", "queue", "parse", "execute", "encode", "write", "stream")
_ENGINE_COUNTERS = ("store_lookups", "intermediate_bindings", "solutions",
                    "scan_batches", "scan_rows")


@dataclass
class ServerConfig:
    """Everything tunable about one endpoint instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests); the CLI defaults to 8890
    workers: int = 4
    queue_capacity: int = 32
    # shedding
    shed_budget_ms: float | None = None  # None = the `interactive` budget
    shed_window: int = 64
    shed_min_observations: int = 8
    approx_max_rows: int = 2_000  # first-stage rows a shed answer draws
    # entries of the one answer cache all workers share
    cache_capacity: int = 128
    # test/CI hook: artificial per-query latency to force overload;
    # scoped to one tenant when debug_delay_tenant is set (so tests can
    # make exactly one tenant burn its error budget)
    debug_delay_ms: float = 0.0
    debug_delay_tenant: str | None = None


class Route(NamedTuple):
    """``handler(server, ctx)`` either writes its response or returns it
    as ``(status, content type, body)``. A route with an interaction is
    admitted and runs on a worker; a probe (none) runs in the read stage."""

    handler: Callable
    name: str | None = None  # the interaction; None for a probe
    interaction_class: str | None = None
    methods: tuple[str, ...] | None = None  # None = any


@dataclass(eq=False, slots=True)
class RequestContext:
    """One request on its way through the stages.

    The read stage fixes the connection, request, folded tenant and trace
    context, and the route when it offers the request to admission;
    ``stamps`` gains ``(stage, ms)`` as each stage ends, the first one
    timed from the accept; the worker sets ``engine``, ``span`` and
    ``runs`` (what the engine's runs add up to), the handler ``tier`` and
    ``shed`` (the shedder's inputs); ``status`` and ``headers`` are the
    response head as written — what :meth:`ReproServer._finish` accounts.
    """

    connection: socket.socket
    started: float  # monotonic: the accept, then the last stage's end
    request: HttpRequest | None = None
    route: Route | None = None  # an admitted route's, else None
    tenant: str = DEFAULT_TENANT
    trace: TraceContext | None = None
    stamps: list[tuple[str, float]] = field(default_factory=list)
    engine: QueryEngine | None = None  # set once a worker took it
    span: object = NOOP_SPAN
    runs: Runs | None = None
    tier: str | None = None
    shed: dict[str, float] | None = None
    aggregate: bool = False  # answered by the aggregate path
    status: int | None = None
    headers: dict[str, str] = field(default_factory=dict)

    def stamp(self, stage: str) -> None:
        now = time.monotonic()
        self.stamps.append((stage, (now - self.started) * 1e3))
        self.started = now


class ReproServer:
    """A concurrent SPARQL endpoint over any :class:`TripleSource`.

    ``start()`` binds and spawns the read loop plus worker threads;
    ``stop()`` shuts everything down. Usable as a context manager. One
    request per connection: every response says ``Connection: close``.
    Each worker owns a plain :class:`QueryEngine` over the shared store
    (stores are read-safe under concurrent readers); all of them share
    ``answers``, the one cache of exact answers
    (:class:`~repro.sparql.cached.CachedQueryEngine`, at most
    ``cache_capacity`` entries), which decides what is kept and when it
    may be served.
    """

    def __init__(self, store: TripleSource, config: ServerConfig | None = None) -> None:
        self.store = store
        self.config = config = config or ServerConfig()
        self.admission: FairAdmissionQueue[RequestContext] = \
            FairAdmissionQueue(config.queue_capacity)
        # Each request judged once, after its last byte, by the process's
        # class budgets: into this server's tenant and shed windows.
        self.policy = OBS.budgets.windowed(config.shed_window)
        self.shedder = LoadShedder(
            self.policy, budget_ms=config.shed_budget_ms,
            min_observations=config.shed_min_observations,
        )
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._served_by_tier: Counter[str] = Counter()  # guarded-by: _lock
        self._aggregate_served = 0  # guarded-by: _lock
        self._aggregate_approximate = 0  # guarded-by: _lock
        self._responses_by_status: Counter[int] \
            = Counter()  # guarded-by: _lock
        self._inflight: Counter[str] = Counter()  # guarded-by: _lock
        # Tenant names come off the wire: folded once, in the read stage,
        # so no per-tenant map or metric label grows past 32 (+ `other`).
        self._tenant_labels = BoundedLabelSet(32)
        self.port: int | None = None
        self.service = "repro-server"
        # One engine per worker, registered for /stats and /metrics.
        self._engines: list[QueryEngine] = []  # guarded-by: _lock
        self.answers = CachedQueryEngine(store, config.cache_capacity)
        # A serving process always records its workload: the query log is
        # the accounting substrate /debug/queries and the workload
        # analyzer read. (Library use stays opt-in via REPRO_QUERYLOG.)
        OBS.querylog.enabled = True

    def start(self) -> "ReproServer":
        if self._sock is not None:
            raise RuntimeError("server already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(LISTEN_BACKLOG)
        sock.setblocking(False)
        self._sock = sock
        self.port = sock.getsockname()[1]
        # The service label distinguishes this instance's spans when
        # several servers share one process (tests) or one trace (federation).
        self.service = service = f"repro-server:{self.port}"
        metrics = OBS.metrics
        self._responses = {
            status: metrics.counter("server.responses", service=service,
                                    status=status)
            for status in STATUS_REASONS
        }
        self._stage_ms = {
            stage: metrics.histogram("server.stage_ms", TIME_MS_BUCKETS,
                                     service=service, stage=stage)
            for stage in STAGES
        }
        # Past this many connections being read, a new one gets the 503 of
        # a full queue: four queues' worth, never fewer than the backlog.
        bound = max(LISTEN_BACKLOG, 4 * self.config.queue_capacity)
        self._threads = [threading.Thread(
            target=read_loop, args=(sock, self._stop, bound, self._dispatch),
            name="repro-read", daemon=True,
        )] + [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-worker-{index}", daemon=True)
            for index in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self.admission.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()
        if self._sock is not None:  # the read loop closed it, unless stuck
            _close_quietly(self._sock)
            self._sock = None
        # Drain anything still queued with an explicit 503.
        while (ctx := self.admission.take(timeout=0)) is not None:
            self._error(ctx, 503, OVERLOADED, RETRY_AFTER)
            self._finish(ctx)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server not started")
        return f"http://{self.config.host}:{self.port}"

    def _dispatch(self, connection: socket.socket, accepted_at: float,
                  data: bytes | None) -> None:
        """Route one read request: answer it here, or offer it to
        admission for a worker to answer. ``data`` is ``None`` for a
        connection the read stage had no room for."""
        connection.settimeout(READ_TIMEOUT_S)  # writes block, bounded
        ctx = RequestContext(connection, accepted_at)
        ctx.stamp("read")
        if data is None:
            self._error(ctx, 503, OVERLOADED, RETRY_AFTER)
            return self._finish(ctx)
        try:
            request = ctx.request = read_request(io.BytesIO(data))
        except HttpError as error:
            self._error(ctx, error.status, error.message)
            return self._finish(ctx)
        route = ROUTES.get(request.path.rstrip("/") or "/")
        if route is None:
            self._error(ctx, 404, f"no such resource: {request.path}")
        elif route.methods and request.method not in route.methods:
            self._error(ctx, 405, f"use {' or '.join(route.methods)}",
                        {"Allow": ", ".join(route.methods)})
        elif route.name is None:  # a probe
            try:
                self._reply(ctx, *route.handler(self, ctx))
            except Exception as exc:
                record_error("server.probe", exc)
                self._error(ctx, 500, str(exc))
        else:
            ctx.route = route
            ctx.tenant = self._tenant_labels.fold(
                request.header("x-repro-tenant")
                or request.query.get("tenant") or DEFAULT_TENANT
            )
            ctx.trace = TraceContext.from_headers(request.headers)
            if self.admission.offer(ctx.tenant, ctx):
                return None
            self._error(ctx, 503, OVERLOADED, RETRY_AFTER)
        return self._finish(ctx)

    def _worker_loop(self) -> None:
        engine = QueryEngine(self.store)
        with self._lock:
            self._engines.append(engine)
        log = OBS.querylog
        while not self._stop.is_set():
            ctx = self.admission.take(timeout=TICK_S)
            if ctx is None:
                continue
            ctx.stamp("queue")
            ctx.engine, route, tenant = engine, ctx.route, ctx.tenant
            with self._lock:
                self._inflight[tenant] += 1
            ctx.runs = Runs()
            log.collect(ctx.runs)
            ctx.span = OBS.tracer.span(
                route.name, remote_parent=ctx.trace,
                interaction_class=route.interaction_class, tenant=tenant,
                service=self.service,
            )
            try:
                with ctx.span:
                    reply = route.handler(self, ctx)
                    if reply is not None:
                        self._reply(ctx, *reply)
            except StreamAborted as aborted:
                # The 200 head is out: a second head would be read as chunk
                # framing. Close instead; the client sees a truncated body.
                record_error("server.stream", aborted.__cause__)
            except Exception as exc:
                record_error("server.handle", exc)
                self._error(ctx, 500, str(exc))
            finally:
                log.collect(None)
                self._finish(ctx)

    def _write(self, ctx: RequestContext, status: int, body) -> None:
        """Write the head ``ctx.headers`` plus ``body``: bytes, or an
        iterable of chunks for a chunked stream."""
        ctx.status = status
        ctx.headers["Server-Timing"] = ", ".join(
            f"{stage};dur={ms:.3f}" for stage, ms in ctx.stamps
        )
        if not isinstance(body, bytes):
            ctx.headers["Transfer-Encoding"] = "chunked"
            try:
                return write_chunked(_Out(ctx.connection), status,
                                     ctx.headers, body)
            finally:
                # An abandoned stream reports its partial run now, into
                # this request's record, not later from the garbage
                # collector as a record of its own.
                body.close()
        try:
            write_response(_Out(ctx.connection), status, ctx.headers, body)
        except OSError:
            # repro: swallow(the client hung up; _finish still counts
            # the status it was answered)
            pass

    def _reply(self, ctx: RequestContext, status: int, content_type: str,
               body, stage: str = "execute") -> None:
        """Write a response whose body is at hand, ``stage`` (what made
        it) ending now."""
        ctx.stamp(stage)
        ctx.headers["Content-Type"] = content_type
        self._write(ctx, status, body)

    def _error(self, ctx: RequestContext, status: int, message: str,
               headers: dict[str, str] | None = None) -> None:
        ctx.headers = {"Content-Type": "application/json", **(headers or {})}
        self._write(ctx, status, json.dumps({"error": message}).encode("utf-8"))

    def _finish(self, ctx: RequestContext) -> None:
        """Account one request after its last byte — exactly once, however
        it was answered: counters, stage histograms, and for an admitted
        route one total (every stage after the read) that a worker's
        request is judged by and that the one query-log record carries."""
        headers, route, worked = ctx.headers, ctx.route, ctx.engine is not None
        ctx.stamp("stream" if "Transfer-Encoding" in headers else "write")
        _close_quietly(ctx.connection)
        tier = headers.get("X-Repro-Tier")
        with self._lock:
            self._responses_by_status[ctx.status] += 1
            if ctx.status == 200 and tier in TIER_NAMES.values():
                self._served_by_tier[tier] += 1
            if ctx.aggregate:
                self._aggregate_served += 1
                self._aggregate_approximate += "X-Repro-Approximate" in headers
            if worked:
                self._inflight[ctx.tenant] -= 1
        self._responses[ctx.status].inc()
        for stage, ms in ctx.stamps:
            self._stage_ms[stage].record(ms)
        if route is None:  # answered in the read stage
            return
        total_ms = sum(ms for _, ms in ctx.stamps[1:])
        span = ctx.span
        if worked:
            attributes = {"tenant": ctx.tenant, "service": self.service,
                          "interaction_class": route.interaction_class,
                          "status": ctx.status}
            if ctx.tier is not None:
                attributes["tier"] = ctx.tier
            OBS.account(route.name, route.interaction_class, total_ms,
                        attributes, span, tenant=ctx.tenant,
                        policy=self.policy, shed=route.name == "server.sparql")
        log = OBS.querylog
        if log.enabled:
            log.append(
                ctx.runs, latency_ms=total_ms, tenant=ctx.tenant,
                interaction_class=route.interaction_class, tier=ctx.tier,
                service=self.service, route=route.name, status=ctx.status,
                trace_id=(ctx.trace or span).trace_id,
                stages=tuple(ctx.stamps), shed=ctx.shed,
            )

    def _handle_sparql(self, ctx: RequestContext):
        request = ctx.request
        text = request.param("query")
        if text is None and "application/sparql-query" in request.header(
            "content-type"
        ):
            text = request.body.decode("utf-8", "replace")
        if not text:
            return self._error(ctx, 400, "missing `query` parameter")
        # Sketch-wire and progressive requests answer an aggregate from a
        # sample and neither read nor fill the answer cache. Anything else
        # asks it first: a text answered before names its plan's digest,
        # and a hit runs no parser.
        modes = (request.header("x-repro-sketch")
                 or request.header("x-repro-progressive"))
        parsed = digest = answer = None
        try:
            parsed = parse_query(text) if modes else None
            if not (modes and aggregate_shape(parsed)):
                parsed, digest, answer = self.answers.probe(text, ctx.engine,
                                                            parsed)
        except (SparqlSyntaxError, ValueError) as error:
            return self._error(ctx, 400, f"parse error: {error}")
        ctx.stamp("parse")
        if digest is not None:
            _decide(ctx, "exact")  # a hit's tier; a shed tier overwrites it
        if self.config.debug_delay_ms > 0 and (
            self.config.debug_delay_tenant in (None, ctx.tenant)
        ):
            # Test/CI hook standing in for a genuinely slow backing store;
            # scoping it to one tenant makes that tenant the SLO offender.
            time.sleep(self.config.debug_delay_ms / 1e3)
        shape = None if answer is not None else aggregate_shape(parsed)
        # Wire mode: a federation coordinator asks for the serialized
        # sketch bundle instead of result rows (cheap bounded work, so it
        # is served regardless of the shed tier; a malformed ``max_rows``
        # keeps the configured default).
        if shape is not None and request.header("x-repro-sketch"):
            _decide(ctx, "sketch-wire")
            max_rows = int_param(request, "max_rows",
                                 self.config.approx_max_rows)
            bundle = build_sketch_bundle(ctx.engine, parsed,
                                         max_rows=max(1, max_rows))
            note_bundle(bundle, self.service)
            ctx.headers["X-Repro-Sketch"] = "1"
            return json_reply(bundle.to_dict())
        # Progressive mode: chunked NDJSON of tightening estimates, one
        # line per pass over a growing sample (client opt-in).
        if shape is not None and request.header("x-repro-progressive"):
            _decide(ctx, "progressive")
            ctx.headers.update({"X-Repro-Tier": "progressive",
                                "X-Repro-Approximate": "1"})
            return 200, "application/x-ndjson", progressive_lines(
                ctx.engine, parsed, self.config.approx_max_rows, self.service
            )
        select = (answer.result is not None if answer is not None
                  else isinstance(parsed, SelectQuery))
        accept = request.header("accept", JSON_TYPE)
        fmt = _negotiate_select(accept) if select else None
        if select and fmt is None:
            return self._error(ctx, 406, f"cannot serve Accept: {accept}")
        # A kept answer is exact whatever the tier, so it is served before
        # anything is sampled: only an aggregate's miss meets the shedder.
        tier = EXACT
        if answer is not None:
            ctx.aggregate = answer.aggregate
        elif shape is not None:
            ctx.aggregate = True
            policy = self.policy
            window = policy.shed_p95()
            burn, peak = policy.burn_rate(ctx.tenant), policy.peak_burn_rate()
            ctx.shed = {"p95_ms": window[0], "n": window[1], "burn": burn,
                        "peak_burn": peak}
            tier = self.shedder.decide(burn, peak, window)
            if shape == "distinct" and not hasattr(self.store, "members"):
                # A sample's distinct count cannot be extrapolated, and over
                # id batches the exact aggregate costs less than draining the
                # stream into an HLL: nothing to shed. (A federation's
                # members each answer with an HLL to merge.)
                tier = EXACT
        if tier != EXACT:
            _decide(ctx, TIER_NAMES[tier])
            return self._answer_shed(ctx, text, parsed, digest, fmt, tier)
        ctx.headers["X-Repro-Tier"] = "exact"
        return self._answer_exact(ctx, parsed, digest, answer, fmt, text)

    def _answer_exact(self, ctx: RequestContext, parsed: Query | None,
                      digest: str, answer: Answer | None,
                      fmt: str | None = None, text: str | None = None) -> None:
        """Write the exact answer of the plan ``digest``: ``answer``, its
        kept entry, else what ``parsed`` evaluates to, which the cache
        keeps (``text`` a name for it)."""
        hit = answer is not None
        if hit:
            ctx.headers["X-Repro-Cache"] = "hit"
        elif fmt in STREAMED and not parsed.select_all and not ctx.aggregate:
            ctx.headers["Content-Type"], chunks = self.answers.stream(
                ctx.engine, parsed, digest, fmt, text
            )
            return self._write(ctx, 200, chunks)
        else:
            # ASK and the graph forms have one body; SELECT * needs all rows
            # before its header is known, the ASCII table pads columns
            # globally, and an aggregate's few rows go out in one piece:
            # materialize these.
            answer = self.answers.evaluate(ctx.engine, parsed, digest,
                                           ctx.aggregate)[1]
        ctx.stamp("execute")
        body = self.answers.body(digest, answer, fmt, hit, text)
        return self._reply(ctx, 200, *body, stage="encode")

    def _answer_shed(self, ctx: RequestContext, text: str,
                     parsed: SelectQuery, digest: str, fmt: str,
                     tier: int) -> None:
        """A shed tier's bounded-work answer from a sample: never kept."""
        max_rows = self.config.approx_max_rows
        if tier >= AGGRESSIVE:
            max_rows = max(1, max_rows // 4)
        answer = shed_answer(self.store, ctx.engine, text, parsed, digest,
                             max_rows, self.service)
        metadata = None
        if answer.approximate:  # else the first stage fit: it was read whole
            metadata = answer.metadata()
            ctx.headers.update({
                "X-Repro-Tier": TIER_NAMES[tier],
                "X-Repro-Approximate": "1",
                "X-Repro-Error-Bound": json.dumps(metadata["bounds"],
                                                  sort_keys=True),
                "X-Repro-Confidence": str(answer.confidence),
                "X-Repro-Rows-Consumed": str(answer.rows_consumed),
                "X-Repro-Estimated-Total": str(answer.estimated_total),
            })
        ctx.stamp("execute")
        ctx.headers.setdefault("X-Repro-Tier", "exact")
        self._reply(ctx, 200, *encode_select(answer.result, fmt, metadata),
                    stage="encode")

    def _handle_describe(self, ctx: RequestContext) -> None:
        resource = ctx.request.param("resource")
        if not resource:
            return self._error(ctx, 400, "missing `resource` parameter")
        try:
            iri = IRI(resource)
        except ValueError as error:
            return self._error(ctx, 400, str(error))
        # The same plan, and so the same cache entry, as `DESCRIBE <iri>`.
        query = DescribeQuery(resources=(iri,))
        ctx.stamp("parse")
        return self._answer_exact(ctx, *self.answers.probe(None, ctx.engine,
                                                           query))

    def stats(self) -> dict[str, object]:
        """The /stats payload: admission, shedding, SLOs, serving counters."""
        admission = self.admission.snapshot()
        shed = self.shedder.snapshot()
        with self._lock:
            by_tier = dict(sorted(self._served_by_tier.items()))
            served = self._aggregate_served
            approximate = self._aggregate_approximate
            by_status = sorted(self._responses_by_status.items())
            inflight = dict(sorted((+self._inflight).items()))
            engines = list(self._engines)
        log = OBS.querylog
        return {
            "service": self.service,
            "admission": asdict(admission),
            "shedding": {**asdict(shed), "tier_name": shed.tier_name,
                         "p95_ms": round(shed.p95_ms, 3)},
            "inflight": inflight,
            "slo": {tenant: state.to_dict()
                    for tenant, state in self.policy.snapshot().items()},
            "served_by_tier": by_tier,
            "aggregate_served": served,
            "aggregate_approximate": approximate,
            "shed_ratio": approximate / served if served else 0.0,
            "responses_by_status": {str(status): count
                                    for status, count in by_status},
            # summed across the worker pool's engines
            "engine": {name: sum(getattr(engine.stats, name)
                                 for engine in engines)
                       for name in _ENGINE_COUNTERS},
            "cache": self.answers.snapshot(),
            "store_version": getattr(self.store, "version", None),
            "querylog": {
                "depth": len(log), "recorded_total": log.recorded_total,
                "dropped": log.dropped, "mirror_errors": log.mirror_errors,
                "mirror_path": log.mirror_path,
            },
        }


# Everything the server answers. Probes (no interaction) skip admission.
ROUTES: dict[str, Route] = {
    "/sparql": Route(ReproServer._handle_sparql, "server.sparql", INTERACTIVE,
                     methods=("GET", "POST")),
    "/facets": Route(explore.facets, "server.facets", INTERACTIVE),
    "/describe": Route(ReproServer._handle_describe, "server.describe",
                       NAVIGATION),
    "/statistics": Route(explore.statistics, "server.statistics", NAVIGATION),
    "/health": Route(probes.health),
    "/stats": Route(probes.stats),
    "/metrics": Route(probes.metrics),
    "/debug/flight": Route(probes.flight),
    "/debug/trace": Route(probes.trace),
    "/debug/queries": Route(probes.queries),
}


def _decide(ctx: RequestContext, tier: str) -> None:
    """Set the request's tier, for its span and its record (a shed tier
    overwrites ``exact``)."""
    ctx.tier = tier
    ctx.span.set_attribute("tier", tier)


# In order of preference: a format, and what in an Accept header names it.
_NEGOTIATED = (
    ("json", (JSON_TYPE, "application/json")),
    ("csv", (CSV_TYPE,)),
    ("tsv", (TSV_TYPE,)),
    ("table", (TABLE_TYPE,)),
    ("json", ("*/*", "application/*", "text/*")),
)


def _negotiate_select(accept: str) -> str | None:
    """The SELECT serialization for an Accept header: ``"json" | "csv" |
    "tsv" | "table"``, or ``None`` when it names only types this endpoint
    cannot produce."""
    lowered = accept.strip().lower()
    if not lowered:
        return "json"
    return next((fmt for fmt, names in _NEGOTIATED
                 if any(name in lowered for name in names)), None)


class _Out:
    """The file :func:`write_response` / :func:`write_chunked` write to:
    ``write`` gathers, ``flush`` sends what was gathered in one ``sendall``
    (so a head and its first chunk leave together)."""

    def __init__(self, connection: socket.socket) -> None:
        self.connection, self.parts = connection, []

    def write(self, data: bytes) -> None:
        self.parts.append(data)

    def flush(self) -> None:
        self.connection.sendall(b"".join(self.parts))
        self.parts.clear()


def _close_quietly(connection) -> None:
    """Close a socket (or a file made from one), whatever state it is in."""
    try:
        connection.close()
    except OSError:
        # repro: swallow(idempotent close; the peer may have reset)
        pass
