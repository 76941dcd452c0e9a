"""The traced run: per-layer times from outside the program.

Nothing in ``src/`` carries benchmark timers, so each layer is measured by
timing calls into its public functions, in the order the server makes
them, in this process and on one thread::

    read_request -> FairAdmissionQueue.offer/take -> parse_query
      -> plan_digest -> ResultCache.get
      -> stream_select drained to a list (store and dictionary behind
         timing proxies) -> iter_sparql_json -> write_chunked
      -> ResultCache.put

with the hit, aggregate, shed and DESCRIBE branches of
``ReproServer._handle_sparql`` mirrored the same way. One span is recorded
per call: name, start, end, parent, request id. Spans stay in memory and
are written to ``out/trace-<workload>.jsonl`` when the run ends. A layer's
self time is its span's duration minus the time its child spans cover.

What cannot be timed from outside (accept, sockets, the hand-off between
acceptor and worker threads, and the telemetry wrappers around a request)
shows up as ``server.residual_ms``: the same requests replayed over
loopback with one client, minus the sum of the layers.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.explore.facets import FacetedBrowser
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.server.admission import FairAdmissionQueue
from repro.server.approximate import approximate_select, eligible_aggregate
from repro.server.http import read_request, write_chunked, write_response
from repro.server.sketch import (
    build_sketch_bundle,
    bundle_to_answer,
    eligible_sketch,
)
from repro.sparql.cached import CachedQueryEngine
from repro.sparql.nodes import DescribeQuery, SelectQuery
from repro.sparql.parser import parse_query
from repro.sparql.results import SelectResult, iter_sparql_json, to_sparql_json
from repro.store.base import DEFAULT_BATCH_SIZE
from repro.store.memory import MemoryStore

import loadgen
import serve
from workloads import Request

JSON_TYPE = "application/sparql-results+json"
CHUNK_ROWS = 64  # ServerConfig.chunk_rows
APPROX_MAX_ROWS = 2_000 // 4  # ServerConfig.approx_max_rows, aggressive
APPROX_CONFIDENCE = 0.95

READ = "server.http.read"
ADMISSION = "server.admission"
PARSE = "sparql.parser.parse"
DIGEST = "sparql.plan.digest"
CACHE_GET = "cache.result_cache.get"
CACHE_PUT = "cache.result_cache.put"
EXEC = "sparql.exec"
SCAN = "store.scan"
DECODE = "store.dictionary.decode"
SERIALIZE = "sparql.results.serialize"
NT_SERIALIZE = "rdf.ntriples.serialize"
WRITE = "server.http.write"
SHED = "server.shed.answer"
REQUEST = "request"


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "busy",
                 "count")

    def __init__(self, name, start, parent, request) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.request = request
        self.busy = 0.0  # time inside the call (a generator is resumed
        #                  many times between its start and its end)
        self.count = 0  # work done at this boundary (terms, bytes)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, start, parent, self.request)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name, time.perf_counter())
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            span.busy = span.end - span.start

    def iterate(self, name: str, iterator):
        """Time a generator call: one span, busy for the time spent inside
        ``next``. An abandoned generator keeps the end of its last step."""
        span = None
        for_next = iterator.__next__
        while True:
            started = time.perf_counter()
            try:
                item = for_next()
            except StopIteration:
                item = _DONE
            finished = time.perf_counter()
            if span is None:
                span = self._open(name, started)
            span.end = finished
            span.busy += finished - started
            if item is _DONE:
                return
            yield item

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "busy": span.busy,
                }) + "\n")


_DONE = object()


class NullTracer:
    """Same surface, no clocks: the untimed side of the overhead ratio."""

    request = -1
    _context = nullcontext()

    def span(self, name: str):
        return self._context


# --------------------------------------------------------------------------- #
# Timing proxies
# --------------------------------------------------------------------------- #


class TimedDictionary:
    def __init__(self, dictionary, tracer: Tracer) -> None:
        self._dictionary = dictionary
        self._tracer = tracer

    def decode_batch(self, term_ids):
        with self._tracer.span(DECODE) as span:
            terms = self._dictionary.decode_batch(term_ids)
            span.count = len(terms)
            return terms

    def __getattr__(self, name):
        return getattr(self._dictionary, name)


class TimedStore:
    """A :class:`MemoryStore` whose scan entry points record spans."""

    def __init__(self, store: MemoryStore, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer
        self.dictionary = TimedDictionary(store.dictionary, tracer)

    def match_id_batches(self, s, p, o, batch_size=DEFAULT_BATCH_SIZE):
        return self._tracer.iterate(
            SCAN, self._store.match_id_batches(s, p, o, batch_size))

    def triples(self, pattern=(None, None, None)):
        return self._tracer.iterate(SCAN, self._store.triples(pattern))

    def distinct_ids(self, s, p, o, position):
        with self._tracer.span(SCAN):
            return self._store.distinct_ids(s, p, o, position)

    def probe_ids(self, s, p, o, key_position, keys, value_position):
        with self._tracer.span(SCAN):
            return self._store.probe_ids(s, p, o, key_position, keys,
                                         value_position)

    def count(self, pattern=(None, None, None)):
        with self._tracer.span(SCAN):
            return self._store.count(pattern)

    def statistics(self):
        return self._store.statistics()

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, name):
        return getattr(self._store, name)


# --------------------------------------------------------------------------- #
# The pipeline, one request at a time
# --------------------------------------------------------------------------- #


def raw_request(request: Request) -> bytes:
    """The bytes ``http.client`` puts on the wire for this request."""
    return (f"GET {request.target} HTTP/1.1\r\n"
            f"Host: {loadgen.HOST}\r\nAccept-Encoding: identity\r\n"
            f"Accept: {JSON_TYPE}\r\n\r\n").encode("ascii")


def _batched(chunks, batch: int):
    buffer: list[str] = []
    for chunk in chunks:
        buffer.append(chunk)
        if len(buffer) >= batch:
            yield "".join(buffer)
            buffer.clear()
    if buffer:
        yield "".join(buffer)


class Pipeline:
    """One worker's view of the server: an engine, its cache, the queue."""

    def __init__(self, store, tracer, tier: str) -> None:
        self.tracer = tracer
        self.tier = tier
        cached = CachedQueryEngine(store, capacity=serve.CACHE_CAPACITY)
        self.engine = cached.engine
        self.cache = cached.cache
        self.admission: FairAdmissionQueue = FairAdmissionQueue(
            serve.QUEUE_CAPACITY)
        self.bytes_out = 0
        self.rows_out = 0

    def handle(self, raw: bytes) -> None:
        span = self.tracer.span
        with span(READ):
            request = read_request(io.BytesIO(raw))
        with span(ADMISSION):
            self.admission.offer("public", request)
            self.admission.take(timeout=0)
        with span(PARSE):
            parsed = parse_query(request.param("query"))
        sink = io.BytesIO()
        if isinstance(parsed, DescribeQuery):
            self._describe(parsed, sink)
        elif eligible_aggregate(parsed) or eligible_sketch(parsed):
            self._aggregate(parsed, sink)
        else:
            self._select(parsed, sink)
        self.bytes_out += sink.tell()

    def _respond(self, sink, result: SelectResult, headers, extra=None):
        with self.tracer.span(SERIALIZE):
            body = to_sparql_json(result, extra=extra).encode("utf-8")
        with self.tracer.span(WRITE):
            write_response(sink, 200,
                           {**headers, "Content-Type": JSON_TYPE}, body)
        self.rows_out += len(result)

    def _select(self, parsed: SelectQuery, sink) -> None:
        span = self.tracer.span
        headers = {"X-Repro-Tier": "exact"}
        with span(DIGEST):
            key = self.engine.plan_digest(parsed)
        with span(CACHE_GET):
            cached = self.cache.get(key)
        if isinstance(cached, SelectResult):
            headers["X-Repro-Cache"] = "hit"
            self._respond(sink, cached, headers)
            return
        with span(EXEC):
            stream = self.engine.stream_select(parsed, digest=key)
            rows = list(stream.rows)
        with span(SERIALIZE):
            chunks = list(iter_sparql_json(stream.variables, rows))
        headers["Content-Type"] = JSON_TYPE
        with span(WRITE):
            write_chunked(sink, 200, headers, _batched(chunks, CHUNK_ROWS))
        with span(CACHE_PUT):
            self.cache.put(key, SelectResult(stream.variables, rows,
                                             plan_digest=key))
        self.rows_out += len(rows)

    def _aggregate(self, parsed: SelectQuery, sink) -> None:
        span = self.tracer.span
        if self.tier == "exact":
            with span(EXEC):
                result = self.engine.query(parsed)
            self._respond(sink, result, {"X-Repro-Tier": "exact"})
            return
        with span(SHED):
            if eligible_aggregate(parsed):
                answer = approximate_select(
                    self.engine, parsed, max_rows=APPROX_MAX_ROWS,
                    confidence=APPROX_CONFIDENCE)
            else:
                answer = bundle_to_answer(build_sketch_bundle(
                    self.engine, parsed, max_rows=APPROX_MAX_ROWS,
                    confidence=APPROX_CONFIDENCE))
        if not answer.approximate:
            self._respond(sink, answer.result, {"X-Repro-Tier": "exact"})
            return
        metadata = answer.metadata()
        self._respond(sink, answer.result, {
            "X-Repro-Tier": "aggressive",
            "X-Repro-Approximate": "1",
            "X-Repro-Error-Bound": json.dumps(metadata["bounds"],
                                              sort_keys=True),
            "X-Repro-Confidence": str(answer.confidence),
            "X-Repro-Rows-Consumed": str(answer.rows_consumed),
            "X-Repro-Estimated-Total": str(answer.estimated_total),
        }, extra=metadata)

    def _describe(self, parsed: DescribeQuery, sink) -> None:
        span = self.tracer.span
        with span(EXEC):
            graph = self.engine.query(parsed)
        with span(NT_SERIALIZE):
            body = serialize_ntriples(graph.triples(), sort=True).encode(
                "utf-8")
        with span(WRITE):
            write_response(sink, 200, {
                "Content-Type": "application/n-triples",
                "X-Repro-Tier": "exact"}, body)
        self.rows_out += len(graph)

    def serve(self, request_id: int, raw: bytes) -> None:
        """Handle one request under its own ``request`` span."""
        self.tracer.request = request_id
        with self.tracer.span(REQUEST):
            self.handle(raw)
        self.tracer.request = -1


def replay_paired(traced: Pipeline, plain: Pipeline, raws: list[bytes],
                  first_id: int, seconds: float) -> list[float]:
    """Handle each of ``raws`` once traced and once untimed, back to back,
    until done or ``seconds`` have passed. Returns traced time over untimed
    time for each request handled; the two sides alternate which goes
    first. The median of these ratios is the tracing overhead: a burst
    from a neighbour hits one pair, not the comparison."""
    deadline = time.perf_counter() + seconds
    ratios = []
    for offset, raw in enumerate(raws):
        if time.perf_counter() >= deadline:
            break
        order = (traced, plain) if offset % 2 == 0 else (plain, traced)
        elapsed = {}
        for pipeline in order:
            started = time.perf_counter()
            pipeline.serve(first_id + offset, raw)
            elapsed[pipeline] = time.perf_counter() - started
        ratios.append(elapsed[traced] / elapsed[plain])
    return ratios


def digest_aside(pipeline: Pipeline, requests: list[Request],
                 first_id: int) -> None:
    """Time ``plan_digest`` on its own for requests whose server path never
    calls it (aggregates and DESCRIBE plan inside ``engine.query``), so the
    layer has a number on every workload. The spans are roots: they are
    not part of any request's sum."""
    tracer = pipeline.tracer
    for offset, request in enumerate(requests):
        parsed = parse_query(request.text)
        if isinstance(parsed, SelectQuery) and not (
                eligible_aggregate(parsed) or eligible_sketch(parsed)):
            continue
        tracer.request = first_id + offset
        with tracer.span(DIGEST):
            pipeline.engine.plan_digest(parsed)
    tracer.request = -1


# --------------------------------------------------------------------------- #
# Set-up layers
# --------------------------------------------------------------------------- #


def timed_load(data_path: Path) -> tuple[MemoryStore, dict[str, float]]:
    """Load the file as the launcher does, timing parse and insert apart."""
    started = time.perf_counter()
    with open(data_path, "r", encoding="utf-8") as handle:
        triples = list(parse_ntriples(handle))
    parsed = time.perf_counter()
    store = MemoryStore()
    for triple in triples:
        store.add(triple)
    loaded = time.perf_counter()
    store.statistics()
    counted = time.perf_counter()
    return store, {
        "rdf.ntriples.parse_s": parsed - started,
        "store.memory.load_s": loaded - parsed,
        "store.statistics_ms": (counted - loaded) * 1e3,
    }


def facets_refresh_ms(store: MemoryStore) -> float:
    """The ``/facets`` route's work; in no workload (see README)."""
    engine = CachedQueryEngine(store, capacity=serve.CACHE_CAPACITY).engine
    started = time.perf_counter()
    FacetedBrowser(store, engine=engine).facets(max_values=10)
    return (time.perf_counter() - started) * 1e3


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    Times are medians over the traced requests in which the layer ran (a
    layer called several times in a request counts once, summed); counts
    are per traced request.
    """
    spans = tracer.spans
    per_request: dict[str, dict[int, float]] = {}
    children: dict[int, float] = {}
    top_level: dict[int, float] = {}
    decoded = scans = 0
    for span in spans:
        if span.name == REQUEST:
            continue
        by_request = per_request.setdefault(span.name, {})
        by_request[span.request] = by_request.get(span.request, 0.0) \
            + span.busy
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) \
                + span.busy
            if spans[span.parent].name == REQUEST:
                top_level[span.request] = top_level.get(span.request, 0.0) \
                    + span.busy
        if span.name == DECODE:
            decoded += span.count
        elif span.name == SCAN:
            scans += 1

    def layer(name: str, scale: float) -> float:
        return _median(per_request.get(name, {}).values()) * scale

    requests = max(1, sum(span.name == REQUEST for span in spans))
    exec_self = [
        span.busy - children.get(index, 0.0)
        for index, span in enumerate(spans) if span.name == EXEC
    ]
    return {
        "server.http.read_us": layer(READ, 1e6),
        "server.http.write_us": layer(WRITE, 1e6),
        "server.admission.roundtrip_us": layer(ADMISSION, 1e6),
        "sparql.parser.parse_us": layer(PARSE, 1e6),
        "sparql.plan.digest_us": layer(DIGEST, 1e6),
        "cache.result_cache.get_us": layer(CACHE_GET, 1e6),
        "cache.result_cache.put_us": layer(CACHE_PUT, 1e6),
        "sparql.exec.total_ms": layer(EXEC, 1e3),
        "sparql.exec.self_ms": _median(exec_self) * 1e3,
        "store.scan_ms": layer(SCAN, 1e3),
        "store.scan_calls": scans / requests,
        "store.dictionary.decode_ms": layer(DECODE, 1e3),
        "store.dictionary.terms_decoded": decoded / requests,
        "sparql.results.serialize_ms": layer(SERIALIZE, 1e3),
        "rdf.ntriples.serialize_us": layer(NT_SERIALIZE, 1e6),
        "server.shed.answer_ms": layer(SHED, 1e3),
        "server.layers_sum_ms": _median(top_level.values()) * 1e3,
    }


def nesting_errors(tracer: Tracer) -> list[str]:
    """Spans that do not lie inside their parent (should be none)."""
    errors = []
    for index, span in enumerate(tracer.spans):
        if span.parent < 0:
            continue
        parent = tracer.spans[span.parent]
        if span.start < parent.start or span.end > parent.end \
                or span.request != parent.request:
            errors.append(f"span {index} ({span.name}) escapes its parent "
                          f"{span.parent} ({parent.name})")
    return errors
