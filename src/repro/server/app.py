"""The SPARQL 1.1 Protocol endpoint: acceptor, worker pool, routing.

:class:`ReproServer` exposes the query/explore stack over HTTP:

* ``GET/POST /sparql`` — SPARQL Protocol operation (``query`` parameter,
  urlencoded form, or an ``application/sparql-query`` body). SELECT
  results stream as chunked W3C JSON / CSV / TSV (content-negotiated);
  ASK answers the results-JSON boolean document; CONSTRUCT / DESCRIBE
  answer N-Triples.
* ``GET /facets`` — the faceted-browsing summary of the served dataset.
* ``GET /describe`` — DESCRIBE one resource (the browser's detail view).
* ``GET /statistics`` — the store's :class:`StatisticsSnapshot` as JSON
  (what :class:`~repro.server.remote.RemoteEndpointSource` reads so a
  federating client can *plan* against this endpoint without scanning it).
* ``GET /health``, ``GET /stats`` — liveness and serving counters; these
  bypass the admission queue so probes survive overload.
* ``GET /metrics`` — every process metric: Prometheus text exposition by
  default, the JSON registry snapshot for ``Accept: application/json``.
  Admission depth, shed tier, per-tenant inflight counts, and per-tenant
  SLO burn rates are refreshed into gauges on each scrape.
* ``GET /debug/flight`` — the flight recorder over HTTP: a JSON index of
  captured dumps, or one dump's JSONL via ``?seq=N`` / ``?seq=latest``.
* ``GET /debug/trace`` — this server's finished root spans as JSONL
  (filtered to this instance's ``service`` label), ready for
  :func:`repro.obs.export.stitch_jsonl` on the client side.
* ``GET /debug/queries`` — the structured query log as JSONL, newest
  window of executed queries with plan digest, strategy, tenant, tier,
  cache outcome, trace id, latency, and resource counters; filterable
  with ``?tenant=`` / ``?digest=`` / ``?since=<unix-ts>`` / ``?limit=``
  (``?all=1`` lifts the this-service filter when several servers share
  one process).

The observability routes bypass admission exactly like ``/health`` — an
overloaded server must stay diagnosable *while* overloaded.

Requests carrying ``X-Repro-Trace`` / ``X-Repro-Span`` headers continue
the caller's trace: the request interaction's span adopts the remote
trace id and records the caller's span id as its ``parent_span_id``, so
one federated query over several servers exports as a single stitched
span tree.

Degradation order under load: first the shed tiers answer the aggregates
they can (:func:`repro.server.sketch.aggregate_shape`) from a uniform
sample of the pattern's first stage — ``approx_max_rows`` rows of it, a
quarter of that in the aggressive tier — with an ``X-Repro-Approximate``
header and error-bound metadata (:mod:`repro.server.sketch`, the one
approximate path); a first stage that fits the budget is read whole and
answered exactly, and so is ``COUNT(DISTINCT)`` unless the store is a
federation, whose members' HLLs merge. Only when the admission queue
itself is full does the server answer 503 + ``Retry-After``. It never
buffers without bound and it never silently drops a request.

Every admitted request runs as an :meth:`repro.obs.Observability.
interaction`, so the latency-budget accountant and the flight recorder
cover the serving layer exactly as they cover the local explore surface.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import asdict, dataclass, field

from ..explore.facets import FacetedBrowser
from ..obs import (
    INTERACTIVE,
    NAVIGATION,
    OBS,
    SloTracker,
    TraceContext,
    record_error,
)
from ..obs.export import render_prometheus, spans_to_jsonl
from ..obs.metrics import BoundedLabelSet
from ..rdf.ntriples import serialize_ntriples
from ..rdf.terms import IRI
from ..cache.result_cache import ResultCache
from ..sparql.eval import QueryEngine
from ..sparql.lexer import SparqlSyntaxError
from ..sparql.nodes import AskQuery, DescribeQuery, Query, SelectQuery
from ..sparql.parser import parse_query
from ..sparql.results import (
    SelectResult,
    ask_to_sparql_json,
    csv_document,
    decode_block,
    json_document,
    term_to_json,
    to_csv,
    to_sparql_json,
    to_tsv,
    tsv_document,
)
from ..store.base import StoreStatistics, TripleSource, compute_statistics
from .admission import FairAdmissionQueue
from .sketch import (
    aggregate_shape,
    build_sketch_bundle,
    bundle_to_answer,
    federated_sketch_bundle,
    iter_sketch_passes,
)
from .http import (
    HttpError,
    HttpRequest,
    StreamAborted,
    read_request,
    write_chunked,
    write_response,
)
from .shedding import AGGRESSIVE, EXACT, TIER_NAMES, LoadShedder

__all__ = ["ServerConfig", "ReproServer"]

JSON_TYPE = "application/sparql-results+json"
CSV_TYPE = "text/csv"
TSV_TYPE = "text/tab-separated-values"
NTRIPLES_TYPE = "application/n-triples"
TABLE_TYPE = "text/plain"

# What no deployment has needed to change: the socket read timeout, the
# tenant of a request that names none, and the Retry-After of a 503. (The
# shed tiers' hysteresis and the confidence of approximate answers are the
# defaults of ``LoadShedder`` and :mod:`repro.server.sketch`.)
READ_TIMEOUT_S = 10.0
DEFAULT_TENANT = "public"
RETRY_AFTER_S = "1"

# What the answer cache may weigh (id columns at 8 B a cell, encoded
# bodies, query texts): no more on 2,000-row pages (48 KB of columns + 440
# KB of JSON) than four private 128-entry caches of columns weighed.
CACHE_BYTES = 16 * 1024 * 1024

# The formats a SELECT streams in: content type and document generator.
_STREAMED = {
    "json": (JSON_TYPE, json_document),
    "csv": (CSV_TYPE, csv_document),
    "tsv": (TSV_TYPE, tsv_document),
}


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
    # per-tenant SLOs (error-budget burn feeding the shedder)
    slo_objective: float = 0.99
    slo_window_s: float = 30.0
    # entries of the one answer cache all workers share
    cache_capacity: int = 128
    # test/CI hook: artificial per-query latency to force overload;
    # scoped to one tenant when debug_delay_tenant is set (so tests can
    # make exactly one tenant burn its error budget)
    debug_delay_ms: float = 0.0
    debug_delay_tenant: str | None = None


@dataclass
class _Pending:
    """One admitted request waiting for a worker."""

    connection: socket.socket
    wfile: object
    request: HttpRequest
    tenant: str
    accepted_at: float = field(default_factory=time.monotonic)


@dataclass
class _Answer:
    """One entry of the answer cache: what a plan evaluated to, and its
    ``(content type, body)`` per negotiated SELECT format, each encoded
    from ``result`` when first asked for. An ASK, CONSTRUCT or DESCRIBE
    has no ``result`` and its one body under ``None``."""

    form: str
    solutions: int
    result: SelectResult | None
    bodies: dict[str | None, tuple[str, bytes]]


class ReproServer:
    """A concurrent SPARQL endpoint over any :class:`TripleSource`.

    ``start()`` binds and spawns the acceptor plus worker threads;
    ``stop()`` shuts everything down. Usable as a context manager. Each
    worker owns a plain :class:`QueryEngine` over the shared store (stores
    are read-safe under concurrent readers); all of them share one cache
    of exact non-aggregate answers, probed before the query is parsed:
    request text → plan digest → :class:`_Answer`, valid for one
    ``store.version`` (a store that offers none is taken never to change),
    at most ``cache_capacity`` entries weighing ``CACHE_BYTES``.
    """

    def __init__(self, store: TripleSource, config: ServerConfig | None = None) -> None:
        self.store = store
        self.config = config or ServerConfig()
        self.admission: FairAdmissionQueue[_Pending] = FairAdmissionQueue(
            self.config.queue_capacity
        )
        self.shedder = LoadShedder(
            budget_ms=self.config.shed_budget_ms,
            window=self.config.shed_window,
            min_observations=self.config.shed_min_observations,
        )
        self.slo = SloTracker(
            objective=self.config.slo_objective,
            window_s=self.config.slo_window_s,
            budgets=OBS.budgets,
        )
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._served_by_tier: dict[int, int] = {}  # guarded-by: _lock
        self._aggregate_served = 0  # guarded-by: _lock
        self._aggregate_approximate = 0  # guarded-by: _lock
        self._responses_by_status: dict[int, int] \
            = {}  # guarded-by: _lock
        self._inflight: dict[str, int] = {}  # guarded-by: _lock
        # tenant names come off the wire: cap the label cardinality so an
        # adversarial client cannot mint unbounded metric time series
        self._tenant_labels = BoundedLabelSet(32)
        self.port: int | None = None
        self._service = "repro-server"
        # One engine per worker; registered here so /stats and /metrics
        # can aggregate their execution counters across the pool.
        self._engines: list[QueryEngine] = []  # guarded-by: _lock
        capacity = self.config.cache_capacity
        self._cache = ResultCache(capacity, name="server.answers",
                                  max_bytes=CACHE_BYTES)
        # Query text → plan digest. A text's digest never changes, so an
        # entry here that outlives its answer costs one parse, no more.
        self._digests = ResultCache(capacity, name="server.texts",
                                    max_bytes=CACHE_BYTES // 16)
        # A serving process always records its workload: the query log is
        # the accounting substrate /debug/queries and the workload
        # analyzer read. (Library use stays opt-in via REPRO_QUERYLOG.)
        OBS.querylog.enabled = True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ReproServer":
        if self._sock is not None:
            raise RuntimeError("server already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        self._sock = sock
        self.port = sock.getsockname()[1]
        # The service label distinguishes this instance's spans when
        # several servers share one process (tests) or one trace (federation).
        self._service = f"repro-server:{self.port}"
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        return self

    def stop(self) -> None:
        self._stop.set()
        self.admission.close()
        sock = self._sock
        if sock is not None:
            self._sock = None
            try:
                # shutdown (not just close) wakes a blocked accept()
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                # repro: swallow(teardown race: the socket may already
                # be closed by the acceptor exiting)
                pass
            try:
                sock.close()
            except OSError:
                # repro: swallow(idempotent close during stop())
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()
        # Drain anything still queued with an explicit 503.
        while True:
            pending = self.admission.take(timeout=0)
            if pending is None:
                break
            self._reject(pending.wfile, pending.connection)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server not started")
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Acceptor
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        sock = self._sock
        while not self._stop.is_set():
            try:
                connection, _address = sock.accept()
            except OSError:
                return  # listening socket closed by stop()
            try:
                self._accept_one(connection)
            except Exception as exc:  # keep accepting no matter what
                record_error("server.accept", exc)
                _close_quietly(connection)

    def _accept_one(self, connection: socket.socket) -> None:
        connection.settimeout(READ_TIMEOUT_S)
        rfile = connection.makefile("rb")
        wfile = connection.makefile("wb")
        try:
            request = read_request(rfile)
        except HttpError as error:
            self._respond_error(wfile, error.status, error.message)
            _close_quietly(connection)
            return
        except OSError:
            _close_quietly(connection)
            return
        finally:
            rfile.close()
        if request is None:
            _close_quietly(connection)
            return
        # Probes and observability routes bypass admission so operators
        # can see an overloaded server's state while it is overloaded.
        probe = self._probe_routes().get(request.path.rstrip("/") or "/")
        if probe is not None:
            try:
                status, headers, body = probe(request)
            except Exception as exc:
                record_error("server.probe", exc)
                status = 500
                headers = {"Content-Type": "application/json"}
                body = json.dumps({"error": str(exc)}).encode("utf-8")
            self._count_status(status)
            write_response(wfile, status, headers, body)
            _close_quietly(connection)
            return
        tenant = (
            request.header("x-repro-tenant")
            or request.query.get("tenant")
            or DEFAULT_TENANT
        )
        pending = _Pending(connection, wfile, request, tenant)
        if not self.admission.offer(tenant, pending):
            self._reject(wfile, connection)

    def _reject(self, wfile, connection: socket.socket) -> None:
        """Explicit backpressure: 503 + Retry-After, never a hidden buffer."""
        self._count_status(503)
        try:
            write_response(
                wfile, 503,
                {
                    "Content-Type": "application/json",
                    "Retry-After": RETRY_AFTER_S,
                },
                b'{"error": "server overloaded, retry later"}',
            )
        except OSError:
            # repro: swallow(the rejected client already hung up;
            # there is nobody left to tell)
            pass
        _close_quietly(connection)

    # ------------------------------------------------------------------ #
    # Probes / observability surface (admission-free)
    # ------------------------------------------------------------------ #

    def _probe_routes(self):
        return {
            "/health": self._probe_health,
            "/stats": self._probe_stats,
            "/metrics": self._probe_metrics,
            "/debug/flight": self._probe_flight,
            "/debug/trace": self._probe_trace,
            "/debug/queries": self._probe_queries,
        }

    def _serving_snapshot(self) -> dict[str, object]:
        """The shared serving-state view: /health, /stats, and the
        /metrics gauge refresh all read this one code path."""
        admission = self.admission.snapshot()
        shed = self.shedder.snapshot()
        with self._lock:
            inflight = dict(sorted(self._inflight.items()))
        return {
            "shed_tier": shed.tier,
            "shed_tier_name": shed.tier_name,
            "queue_depth": admission.depth,
            "per_tenant_depth": admission.per_tenant_depth,
            "inflight": inflight,
        }

    def _probe_health(self, request: HttpRequest):
        payload = {"status": "ok", "service": self._service,
                   **self._serving_snapshot()}
        return 200, {"Content-Type": "application/json"}, json.dumps(
            payload, sort_keys=True
        ).encode("utf-8")

    def _probe_stats(self, request: HttpRequest):
        return 200, {"Content-Type": "application/json"}, json.dumps(
            self.stats(), sort_keys=True
        ).encode("utf-8")

    def _refresh_metrics(self) -> None:
        """Push current serving state into the process metrics registry.

        Gauges are scrape-time snapshots (Prometheus semantics): each
        /metrics hit refreshes admission depth, shed tier, per-tenant
        inflight, and per-tenant SLO burn rate before rendering.
        """
        snapshot = self._serving_snapshot()
        metrics = OBS.metrics
        service = self._service
        metrics.gauge("server.admission.depth", service=service).set(
            float(snapshot["queue_depth"])
        )
        metrics.gauge("server.shed.tier", service=service).set(
            float(snapshot["shed_tier"])
        )
        for tenant, count in snapshot["inflight"].items():
            metrics.gauge(
                "server.inflight", service=service,
                tenant=self._tenant_labels.fold(tenant),
            ).set(float(count))
        for tenant, state in self.slo.snapshot().items():
            metrics.gauge(
                "server.slo.burn_rate", service=service,
                tenant=self._tenant_labels.fold(tenant),
            ).set(state.burn_rate)
        log = OBS.querylog
        metrics.gauge("querylog.depth", service=service).set(float(len(log)))
        metrics.gauge("querylog.dropped", service=service).set(
            float(log.dropped)
        )
        metrics.gauge("querylog.mirror_errors", service=service).set(
            float(log.mirror_errors)
        )
        for name, value in self._engine_counters().items():
            metrics.gauge(f"engine.{name}", service=service).set(float(value))
        for name, value in self._cache_counters().items():
            metrics.gauge(f"server.cache.{name}", service=service).set(
                float(value)
            )

    def _engine_counters(self) -> dict[str, int]:
        """Execution counters summed across the worker pool's engines —
        the vectorized ``scan_batches``/``scan_rows`` included, which
        until now existed on spans only."""
        totals = {"store_lookups": 0, "intermediate_bindings": 0,
                  "solutions": 0, "scan_batches": 0, "scan_rows": 0}
        with self._lock:
            engines = list(self._engines)
        for engine in engines:
            for name in totals:
                totals[name] += getattr(engine.stats, name)
        return totals

    def _cache_counters(self) -> dict[str, int]:
        return {"entries": len(self._cache),
                "bytes": self._cache.bytes + self._digests.bytes,
                **asdict(self._cache.stats)}

    def _probe_metrics(self, request: HttpRequest):
        self._refresh_metrics()
        accept = request.header("accept", "")
        if "application/json" in accept.lower():
            body = json.dumps(
                OBS.metrics.snapshot(), sort_keys=True
            ).encode("utf-8")
            return 200, {"Content-Type": "application/json"}, body
        body = render_prometheus(OBS.metrics).encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
        return 200, {"Content-Type": content_type}, body

    def _probe_flight(self, request: HttpRequest):
        dumps = OBS.flight.dumps()
        seq = request.query.get("seq")
        if seq is None:
            index = {
                "recorded_total": OBS.flight.recorded_total,
                "dump_count": OBS.flight.dump_count,
                "dumps": [
                    {
                        "sequence": dump.sequence,
                        "reason": dump.reason,
                        "entries": len(dump.entries),
                        "has_profile": dump.profile_folded is not None,
                    }
                    for dump in dumps
                ],
            }
            return 200, {"Content-Type": "application/json"}, json.dumps(
                index, sort_keys=True
            ).encode("utf-8")
        if seq == "latest":
            chosen = dumps[-1] if dumps else None
        else:
            try:
                wanted = int(seq)
            except ValueError:
                return 400, {"Content-Type": "application/json"}, \
                    b'{"error": "seq must be an integer or `latest`"}'
            chosen = next(
                (dump for dump in dumps if dump.sequence == wanted), None
            )
        if chosen is None:
            return 404, {"Content-Type": "application/json"}, \
                b'{"error": "no such flight dump"}'
        return 200, {"Content-Type": "application/x-ndjson"}, \
            chosen.to_jsonl().encode("utf-8")

    def _probe_queries(self, request: HttpRequest):
        """The query log as JSONL: what this server actually executed.

        Admission-free like the other debug routes — workload questions
        matter most when the server is overloaded. Filtered to this
        instance's records by default (several servers can share one
        process in tests); ``?all=1`` lifts that.
        """
        query = request.query
        since = None
        if query.get("since") is not None:
            try:
                since = float(query["since"])
            except ValueError:
                return 400, {"Content-Type": "application/json"}, \
                    b'{"error": "since must be a UNIX timestamp"}'
        limit = _int_param(request, "limit", 200)
        service = None if query.get("all") else self._service
        records = OBS.querylog.records(
            tenant=query.get("tenant"),
            digest=query.get("digest"),
            since=since,
            service=service,
        )
        if limit > 0:
            records = records[-limit:]
        body = "\n".join(
            json.dumps(record.to_dict(), sort_keys=True)
            for record in records
        )
        if body:
            body += "\n"
        return 200, {"Content-Type": "application/x-ndjson"}, \
            body.encode("utf-8")

    def _probe_trace(self, request: HttpRequest):
        """This server's finished root spans as JSONL, stitch-ready.

        Filtered by the ``service`` attribute: when several servers share
        one process (in-process federation tests) each still exports only
        its own spans, as separate processes would.
        """
        spans = [
            span for span in OBS.tracer.recorder.spans()
            if span.attributes.get("service") == self._service
        ]
        body = spans_to_jsonl(spans).encode("utf-8")
        return 200, {"Content-Type": "application/x-ndjson"}, body

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        engine = QueryEngine(self.store)
        with self._lock:
            self._engines.append(engine)
        while not self._stop.is_set():
            pending = self.admission.take(timeout=0.2)
            if pending is None:
                continue
            try:
                self._handle(pending, engine)
            except StreamAborted as aborted:
                # The 200 head is out: a second head would be read as chunk
                # framing. Close instead; the client sees a truncated body.
                record_error("server.stream", aborted.__cause__)
                _close_quietly(pending.wfile)
            except Exception as exc:
                record_error("server.handle", exc)
                try:
                    self._respond_error(pending.wfile, 500, str(exc))
                except OSError:
                    # repro: swallow(client gone mid-error-response;
                    # the handler failure was counted above)
                    pass
            finally:
                _close_quietly(pending.connection)

    _ROUTE_CLASSES = {
        "/sparql": ("server.sparql", INTERACTIVE),
        "/facets": ("server.facets", INTERACTIVE),
        "/describe": ("server.describe", NAVIGATION),
        "/statistics": ("server.statistics", NAVIGATION),
    }

    def _handle(self, pending: _Pending, engine: QueryEngine) -> None:
        request = pending.request
        route = request.path.rstrip("/") or "/"
        named = self._ROUTE_CLASSES.get(route)
        if named is None:
            self._respond_error(pending.wfile, 404,
                                f"no such resource: {request.path}")
            return
        name, interaction_class = named
        tenant = pending.tenant
        # A caller-supplied trace context makes this request's span a
        # continuation of the remote trace (malformed headers parse to
        # None and start a fresh local trace instead).
        remote = TraceContext.from_headers(request.headers)
        self._inflight_delta(tenant, +1)
        try:
            # Every query-log record emitted while handling this request
            # (engine calls included) carries the serving attribution; the
            # shed tier is annotated later, once decided.
            with OBS.querylog.serving(
                tenant=tenant, interaction_class=interaction_class,
                service=self._service,
            ), OBS.interaction(
                name, interaction_class, remote_parent=remote,
                tenant=tenant, service=self._service,
            ) as act:
                if route == "/sparql":
                    self._handle_sparql(pending, engine, act)
                elif route == "/facets":
                    self._handle_facets(pending, engine)
                elif route == "/describe":
                    self._handle_describe(pending, engine)
                else:
                    self._handle_statistics(pending)
        finally:
            # The user's clock starts at accept time: queue wait counts,
            # for the shedder and the tenant's SLO alike.
            total_ms = (time.monotonic() - pending.accepted_at) * 1e3
            self.slo.observe(tenant, interaction_class, total_ms)
            if route == "/sparql":
                self.shedder.observe(total_ms)
            self._inflight_delta(tenant, -1)

    # ------------------------------------------------------------------ #
    # /sparql
    # ------------------------------------------------------------------ #

    def _handle_sparql(
        self, pending: _Pending, engine: QueryEngine, act
    ) -> None:
        request = pending.request
        if request.method not in ("GET", "POST"):
            self._respond_error(pending.wfile, 405, "use GET or POST")
            return
        text = request.param("query")
        if text is None and "application/sparql-query" in request.header(
            "content-type"
        ):
            text = request.body.decode("utf-8", "replace")
        if not text:
            self._respond_error(pending.wfile, 400,
                                "missing `query` parameter")
            return
        # The probe in front of the parser: a text answered before names
        # its plan's digest. (Aggregates never are, nor is anything else
        # the sketch-wire and progressive headers apply to.)
        digest = self._digests.get(text)
        parsed = None
        if digest is None:
            try:
                parsed = parse_query(text)
            except (SparqlSyntaxError, ValueError) as error:
                self._respond_error(pending.wfile, 400,
                                    f"parse error: {error}")
                return

        accept = request.header("accept", JSON_TYPE)
        if self.config.debug_delay_ms > 0 and (
            self.config.debug_delay_tenant is None
            or pending.tenant == self.config.debug_delay_tenant
        ):
            # Test/CI hook standing in for a genuinely slow backing store;
            # scoping it to one tenant makes that tenant the SLO offender.
            time.sleep(self.config.debug_delay_ms / 1e3)

        shape = None if parsed is None else aggregate_shape(parsed)
        if shape is not None:
            # Wire mode: a federation coordinator asks for the serialized
            # sketch bundle instead of result rows (cheap bounded work, so
            # it is served regardless of the shed tier).
            if request.header("x-repro-sketch"):
                act.set_attribute("tier", "sketch-wire")
                OBS.querylog.annotate_serving(tier="sketch-wire")
                self._answer_sketch_wire(pending, engine, request, parsed)
                return
            # Progressive mode: chunked NDJSON of tightening estimates,
            # one line per pass over a growing sample (client opt-in).
            if request.header("x-repro-progressive"):
                act.set_attribute("tier", "progressive")
                OBS.querylog.annotate_serving(tier="progressive")
                self._answer_sketch_progressive(pending, engine, parsed)
                return
            tier = self.shedder.decide(
                burn_rate=self.slo.burn_rate(pending.tenant),
                peak_burn=self.slo.peak_burn_rate(),
            )
            if shape == "distinct" and not hasattr(self.store, "members"):
                # A sample's distinct count cannot be extrapolated, and
                # over id batches the exact aggregate costs less than
                # draining the stream into an HLL: nothing to shed. (A
                # federation's members each answer with an HLL to merge.)
                tier = EXACT
            act.set_attribute("tier", TIER_NAMES[tier])
            OBS.querylog.annotate_serving(tier=TIER_NAMES[tier])
            self._answer_aggregate(pending, engine, text, parsed, tier,
                                   accept)
            return
        act.set_attribute("tier", "exact")
        OBS.querylog.annotate_serving(tier="exact")
        self._mark_served(EXACT)
        if digest is None:
            digest = engine.plan_digest(parsed)
        self._answer_exact(pending, engine, parsed, digest, accept,
                           {"X-Repro-Tier": "exact"}, text)

    def _answer_exact(self, pending: _Pending, engine: QueryEngine,
                      parsed: Query | None, digest: str, accept: str,
                      headers: dict[str, str], text: str | None = None) -> None:
        """Write the exact answer of the plan ``digest``: the cache's entry
        of this store version, else what ``parsed`` evaluates to, which
        becomes the entry. ``text``, the request's query, is kept as a
        name for it; ``parsed`` is ``None`` when the text named the digest."""
        version = getattr(self.store, "version", None)
        started = time.perf_counter_ns()
        answer = self._cache.get(digest, stamp=version)
        hit, grown = answer is not None, False
        if parsed is None and not hit:
            parsed = parse_query(text)  # the entry has left; the text stayed
        elif text is not None and parsed is not None:
            self._digests.put(text, digest, len(text))
        select = (answer.result is not None if hit
                  else isinstance(parsed, SelectQuery))
        fmt = _negotiate_select(accept) if select else None
        if select and fmt is None:
            self._respond_error(pending.wfile, 406,
                                f"cannot serve Accept: {accept}")
            return
        if not hit and fmt in _STREAMED and not parsed.select_all:
            self._stream_select(pending, engine, parsed, digest, version, fmt,
                                headers)
            return
        if hit:
            headers["X-Repro-Cache"] = "hit"
            # No engine ran: the workload record is written here, with the
            # requester's tenant, class and trace.
            OBS.querylog.emit_cache_hit(
                digest=digest, form=answer.form, solutions=answer.solutions,
                latency_ms=(time.perf_counter_ns() - started) / 1e6,
            )
        else:
            # ASK and the graph forms have one body; SELECT * needs all rows
            # before its header is known and the ASCII table pads columns
            # globally: materialize these.
            answer = _evaluate(engine, parsed, digest)
        body = answer.bodies.get(fmt)
        if body is None:  # this format's first request
            body = _encode_select(answer.result, fmt)
            grown = answer.bodies.setdefault(fmt, body) is body
        if grown or not hit:
            self._keep(digest, version, answer)
        self._send(pending, headers, body)

    def _keep(self, digest: str, version: object, answer: _Answer) -> None:
        """Put ``answer`` in the cache (again), at what it weighs now. Done
        before its last byte is written: whoever has the response and asks
        again finds the entry."""
        weight = sum(len(body) for _, body in list(answer.bodies.values()))
        if answer.result is not None:
            weight += 8 * len(answer.result) * len(answer.result.variables)
        self._cache.put(digest, answer, weight, stamp=version)

    def _stream_select(self, pending: _Pending, engine: QueryEngine,
                       parsed: SelectQuery, digest: str, version: object,
                       fmt: str, headers: dict[str, str]) -> None:
        """One HTTP chunk per batch off the operator tree, terms first
        touched here, by the serializer. The document generator holds one
        block back, so a one-block answer is written whole, and the last
        block of a longer one with the document's close, only after the
        engine has merged its stats and logged the query: a client that
        has the response finds both in /stats and /debug/queries."""
        stream = engine.stream_select(parsed, digest=digest)
        content_type, document = _STREAMED[fmt]
        kept, written = [], []

        def blocks():
            for batch in stream.batches:
                kept.append(batch)
                yield decode_block(
                    stream.variables, batch.columns, batch.count,
                    stream.dictionary,
                )

        def chunks():
            for chunk in document(stream.variables, blocks()):
                written.append(chunk.encode("utf-8"))
                yield written[-1]
            # The whole answer went out and only the terminal chunk is
            # left: the next hit is served these bytes, and any other
            # format from the batches.
            result = SelectResult.from_batches(
                stream.variables, kept, stream.dictionary, plan_digest=digest,
            )
            self._keep(digest, version, _Answer(
                "SELECT", len(result), result,
                {fmt: (content_type, b"".join(written))},
            ))

        headers["Content-Type"] = content_type
        self._count_status(200)
        write_chunked(pending.wfile, 200, headers, chunks())

    def _answer_aggregate(
        self,
        pending: _Pending,
        engine: QueryEngine,
        text: str,
        parsed: SelectQuery,
        tier: int,
        accept: str,
    ) -> None:
        """Aggregate queries: the tier decides exact vs bounded-work."""
        fmt = _negotiate_select(accept)
        if fmt is None:
            self._respond_error(pending.wfile, 406,
                                f"cannot serve Accept: {accept}")
            return
        with self._lock:
            self._aggregate_served += 1
        if tier == EXACT:
            self._mark_served(EXACT)
            result = engine.query(parsed)
            self._send(pending, {"X-Repro-Tier": "exact"},
                       _encode_select(result, fmt))
            return
        max_rows = self.config.approx_max_rows
        if tier >= AGGRESSIVE:
            max_rows = max(1, max_rows // 4)
        answer = self._shed_answer(engine, text, parsed, max_rows)
        if not answer.approximate:
            # The whole first stage fit the budget: that one pass read
            # everything, and the answer is exact.
            self._mark_served(EXACT)
            self._send(pending, {"X-Repro-Tier": "exact"},
                       _encode_select(answer.result, fmt))
            return
        with self._lock:
            self._aggregate_approximate += 1
        self._mark_served(tier)
        metadata = answer.metadata()
        headers = {
            "X-Repro-Tier": TIER_NAMES[tier],
            "X-Repro-Approximate": "1",
            "X-Repro-Error-Bound": json.dumps(metadata["bounds"],
                                              sort_keys=True),
            "X-Repro-Confidence": str(answer.confidence),
            "X-Repro-Rows-Consumed": str(answer.rows_consumed),
            "X-Repro-Estimated-Total": str(answer.estimated_total),
        }
        self._send(pending, headers,
                   _encode_select(answer.result, fmt, metadata))

    def _shed_answer(
        self,
        engine: QueryEngine,
        text: str,
        parsed: SelectQuery,
        max_rows: int,
    ):
        """The bounded-work answer: a bundle filled from a sample of this
        store, or merged from the members' bundles when the store is a
        federation. One query-log record either way, under the digest of
        the query the client sent: the sampled stream's own (strategy
        ``…+sample``), or the one written here for a federation, whose
        members ran the streams."""
        started = time.perf_counter_ns()
        bundle = federated_sketch_bundle(
            self.store, text, parsed, max_rows=max_rows
        )
        if bundle is None:
            bundle = build_sketch_bundle(
                engine, parsed, max_rows=max_rows
            )
            answer = bundle_to_answer(bundle)
        else:
            answer = bundle_to_answer(bundle, method="sketch-federated")
            log = OBS.querylog
            if log.enabled:
                log.emit(
                    digest=engine.plan_digest(parsed),
                    form="SELECT",
                    strategy=(
                        "federated+sample" if answer.approximate
                        else "federated"
                    ),
                    latency_ms=(time.perf_counter_ns() - started) / 1e6,
                    solutions=len(answer.result),
                )
        self._note_sketch_bundle(bundle)
        return answer

    def _note_sketch_bundle(self, bundle) -> None:
        """Per-family sketch activity: counters + memory gauges for
        /metrics (served from the coordinator level, never per-row)."""
        metrics = OBS.metrics
        service = self._service
        for spec in bundle.agg_specs:
            family = spec.sketch.kind
            metrics.counter(
                "server.sketch.answers", service=service, family=family
            ).inc()
            metrics.gauge(
                "server.sketch.bytes", service=service, family=family
            ).set(float(spec.sketch.size_bytes()))

    def _answer_sketch_wire(
        self,
        pending: _Pending,
        engine: QueryEngine,
        request: HttpRequest,
        parsed: SelectQuery,
    ) -> None:
        """Answer with the serialized sketch bundle (federation wire)."""
        max_rows = self.config.approx_max_rows
        raw = request.param("max_rows")
        if raw is not None:
            try:
                max_rows = int(raw)
            except ValueError:
                # repro: swallow(malformed max_rows keeps the configured
                # default rather than failing the federated call)
                pass
        bundle = build_sketch_bundle(
            engine, parsed, max_rows=max(1, max_rows)
        )
        self._note_sketch_bundle(bundle)
        self._count_status(200)
        write_response(
            pending.wfile, 200,
            {"Content-Type": "application/json",
             "X-Repro-Sketch": "1"},
            json.dumps(bundle.to_dict(), sort_keys=True).encode("utf-8"),
        )

    def _answer_sketch_progressive(
        self,
        pending: _Pending,
        engine: QueryEngine,
        parsed: SelectQuery,
    ) -> None:
        """Stream tightening estimates as NDJSON, one line per pass."""
        passes = iter_sketch_passes(
            engine, parsed, max_rows=self.config.approx_max_rows
        )

        def lines():
            final_bundle = None
            for index, bundle in enumerate(passes):
                final_bundle = bundle
                answer = bundle_to_answer(bundle)
                bindings = [
                    {
                        str(var): term_to_json(row[var])
                        for var in answer.result.variables
                        if row.get(var) is not None
                    }
                    for row in answer.result.rows
                ]
                yield json.dumps(
                    {
                        "pass": index + 1,
                        "final": bundle.exhausted,
                        "metadata": answer.metadata(),
                        "bindings": bindings,
                    },
                    sort_keys=True,
                ) + "\n"
            if final_bundle is not None:
                self._note_sketch_bundle(final_bundle)

        headers = {
            "Content-Type": "application/x-ndjson",
            "X-Repro-Tier": "progressive",
            "X-Repro-Approximate": "1",
        }
        self._count_status(200)
        write_chunked(pending.wfile, 200, headers, lines())

    def _send(self, pending: _Pending, headers: dict[str, str],
              body: tuple[str, bytes]) -> None:
        headers["Content-Type"] = body[0]
        self._count_status(200)
        write_response(pending.wfile, 200, headers, body[1])

    # ------------------------------------------------------------------ #
    # Explore surface
    # ------------------------------------------------------------------ #

    def _handle_facets(self, pending: _Pending,
                       engine: QueryEngine) -> None:
        request = pending.request
        max_values = _int_param(request, "max_values", 25)
        min_count = _int_param(request, "min_count", 1)
        browser = FacetedBrowser(self.store, engine=engine)
        facets = browser.facets(max_values=max_values, min_count=min_count)
        payload = [
            {
                "predicate": str(facet.predicate),
                "cardinality": facet.cardinality,
                "values": [
                    {
                        "term": term_to_json(value.value),
                        "label": value.label,
                        "count": value.count,
                    }
                    for value in facet.values
                ],
            }
            for facet in facets
        ]
        self._count_status(200)
        write_response(
            pending.wfile, 200, {"Content-Type": "application/json"},
            json.dumps({"focus": len(browser), "facets": payload},
                       sort_keys=True).encode("utf-8"),
        )

    def _handle_describe(self, pending: _Pending,
                         engine: QueryEngine) -> None:
        resource = pending.request.param("resource")
        if not resource:
            self._respond_error(pending.wfile, 400,
                                "missing `resource` parameter")
            return
        try:
            iri = IRI(resource)
        except ValueError as error:
            self._respond_error(pending.wfile, 400, str(error))
            return
        # The same plan, and so the same cache entry, as `DESCRIBE <iri>`.
        query = DescribeQuery(resources=(iri,))
        self._answer_exact(pending, engine, query, engine.plan_digest(query),
                           "", {})

    def _handle_statistics(self, pending: _Pending) -> None:
        if isinstance(self.store, StoreStatistics):
            snapshot = self.store.statistics()
        else:
            snapshot = compute_statistics(self.store)
        payload = {
            "triple_count": snapshot.triple_count,
            "distinct_subjects": snapshot.distinct_subjects,
            "distinct_predicates": snapshot.distinct_predicates,
            "distinct_objects": snapshot.distinct_objects,
            "predicate_cardinalities": {
                str(predicate): count
                for predicate, count
                in snapshot.predicate_cardinalities.items()
            },
            "predicate_distinct_objects": {
                str(predicate): count
                for predicate, count
                in snapshot.predicate_distinct_objects.items()
            },
            "store_version": getattr(self.store, "version", None),
        }
        self._count_status(200)
        write_response(
            pending.wfile, 200, {"Content-Type": "application/json"},
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def _mark_served(self, tier: int) -> None:
        with self._lock:
            self._served_by_tier[tier] = self._served_by_tier.get(tier, 0) + 1

    def _inflight_delta(self, tenant: str, delta: int) -> None:
        with self._lock:
            value = self._inflight.get(tenant, 0) + delta
            if value <= 0:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = value

    def _count_status(self, status: int) -> None:
        with self._lock:
            self._responses_by_status[status] = (
                self._responses_by_status.get(status, 0) + 1
            )
        OBS.metrics.counter(
            "server.responses", service=self._service, status=status
        ).inc()

    def _respond_error(self, wfile, status: int, message: str) -> None:
        self._count_status(status)
        try:
            write_response(
                wfile, status, {"Content-Type": "application/json"},
                json.dumps({"error": message}).encode("utf-8"),
            )
        except OSError:
            # repro: swallow(client gone mid-error-response; the
            # status was already counted in _count_status)
            pass

    def stats(self) -> dict[str, object]:
        """The /stats payload: admission, shedding, SLOs, serving counters."""
        admission = self.admission.snapshot()
        shed = self.shedder.snapshot()
        serving = self._serving_snapshot()
        with self._lock:
            by_tier = {
                TIER_NAMES.get(tier, str(tier)): count
                for tier, count in sorted(self._served_by_tier.items())
            }
            aggregate_served = self._aggregate_served
            aggregate_approximate = self._aggregate_approximate
            by_status = dict(sorted(self._responses_by_status.items()))
        return {
            "service": self._service,
            "admission": {
                "capacity": admission.capacity,
                "depth": admission.depth,
                "admitted": admission.admitted,
                "rejected": admission.rejected,
                "per_tenant_admitted": admission.per_tenant_admitted,
                "per_tenant_rejected": admission.per_tenant_rejected,
                "per_tenant_depth": admission.per_tenant_depth,
            },
            "shedding": {
                "tier": shed.tier,
                "tier_name": shed.tier_name,
                "p95_ms": round(shed.p95_ms, 3),
                "budget_ms": shed.budget_ms,
                "window_size": shed.window_size,
                "burn_escalations": shed.burn_escalations,
                "burn_protections": shed.burn_protections,
            },
            "inflight": serving["inflight"],
            "slo": {
                tenant: state.to_dict()
                for tenant, state in self.slo.snapshot().items()
            },
            "served_by_tier": by_tier,
            "aggregate_served": aggregate_served,
            "aggregate_approximate": aggregate_approximate,
            "shed_ratio": (
                aggregate_approximate / aggregate_served
                if aggregate_served else 0.0
            ),
            "responses_by_status": {
                str(status): count for status, count in by_status.items()
            },
            "engine": self._engine_counters(),
            "cache": self._cache_counters(),
            "store_version": getattr(self.store, "version", None),
            "querylog": {
                "depth": len(OBS.querylog),
                "recorded_total": OBS.querylog.recorded_total,
                "dropped": OBS.querylog.dropped,
                "mirror_errors": OBS.querylog.mirror_errors,
                "mirror_path": OBS.querylog.mirror_path,
            },
        }


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _evaluate(engine: QueryEngine, parsed: Query, digest: str) -> _Answer:
    """``parsed`` evaluated whole, as a cache entry."""
    result = engine.query(parsed, digest=digest)
    if isinstance(parsed, SelectQuery):
        return _Answer("SELECT", len(result), result, {})
    if isinstance(parsed, AskQuery):
        body = ask_to_sparql_json(result).encode("utf-8")
        return _Answer("ASK", int(result), None, {None: (JSON_TYPE, body)})
    form = "DESCRIBE" if isinstance(parsed, DescribeQuery) else "CONSTRUCT"
    body = serialize_ntriples(result.triples(), sort=True).encode("utf-8")
    return _Answer(form, len(result), None, {None: (NTRIPLES_TYPE, body)})


def _encode_select(
    result: SelectResult, fmt: str, extra: dict[str, object] | None = None
) -> tuple[str, bytes]:
    """``(content type, body)`` of a SELECT answer in a negotiated format."""
    if fmt == "csv":
        body, content_type = to_csv(result), CSV_TYPE
    elif fmt == "tsv":
        body, content_type = to_tsv(result), TSV_TYPE
    elif fmt == "table":
        body, content_type = result.to_table(max_rows=None), TABLE_TYPE
    else:
        body, content_type = to_sparql_json(result, extra=extra), JSON_TYPE
    return content_type, body.encode("utf-8")


def _negotiate_select(accept: str) -> str | None:
    """Pick the SELECT serialization for an Accept header.

    Returns ``"json" | "csv" | "tsv" | "table"``, or ``None`` when the
    header names only types this endpoint cannot produce.
    """
    if not accept or accept.strip() == "":
        return "json"
    lowered = accept.lower()
    if JSON_TYPE in lowered or "application/json" in lowered:
        return "json"
    if CSV_TYPE in lowered:
        return "csv"
    if TSV_TYPE in lowered:
        return "tsv"
    if TABLE_TYPE in lowered:
        return "table"
    if "*/*" in lowered or "application/*" in lowered or "text/*" in lowered:
        return "json"
    return None


def _int_param(request: HttpRequest, name: str, default: int) -> int:
    value = request.query.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


def _close_quietly(connection) -> None:
    """Close a socket (or a file made from one), whatever state it is in."""
    try:
        connection.close()
    except OSError:
        # repro: swallow(idempotent close; the peer may have reset)
        pass
