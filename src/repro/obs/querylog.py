"""Structured query log: one record per finished request, query or
interaction — the process's one recent history.

The survey's interactivity claims are claims about a *workload* — yet a
single trace (:mod:`repro.obs.trace`) cannot answer "which plans are
slow, which estimates are wrong, what do tenants actually run". This
module is that substrate: a bounded in-memory ring of :class:`QueryRecord`
— plan digest, execution strategy, tenant, interaction class, shed tier,
cache outcome, trace id, latency, whether it blew its budget, the
:class:`~repro.sparql.physical.EvalStats` resource counters and per-scan
estimated-vs-actual cardinality observations — *mirrored* to JSONL when
the :envvar:`REPRO_QUERYLOG_DIR` environment variable names a directory.

**The record is the request.** A server writes one record per request to
an admitted route, whatever its status, after the last byte
(``ReproServer._finish``), from the request's own context: route, status,
the stages it was stamped through, tenant, class, tier, service, the
shedder's inputs when it was asked, and the client's trace id. The engine
runs inside that request do not write records of their own: while a
request is open on a thread (:meth:`QueryLog.collect`), :meth:`emit` adds
each run's digest, form, strategy, counters, scans, completeness and cache
outcome into its :class:`Runs` instead. Outside any request — the
library, with :envvar:`REPRO_QUERYLOG` set — every run appends its own
record. Interactions (``OBS.interaction``, ``@track``) and errors
(``record_error``) always append one, whatever ``enabled`` says.

**Dumps.** A budget violation or a recorded error snapshots the newest
records with the offender and its span tree (:meth:`QueryLog.dump`, at
most one a second), written as ``flight-<seq>.jsonl`` under
:envvar:`REPRO_FLIGHT_DIR`.

The ring answers live questions (``GET /debug/queries`` on the server,
``?trace=`` for one request; ``GET /debug/flight`` for the dumps); the
JSONL mirror is the durable feed :mod:`repro.obs.workload` analyzes
offline and :mod:`repro.obs.why` reads one request's story from.
Recording is O(1): one ring append and (mirror only) one buffered line
append.

Engine emission follows the tracer's precedent — off by default so
library hot paths pay a single attribute check, switched on by the
serving layer, the :envvar:`REPRO_QUERYLOG` environment variable, or
setting ``OBS.querylog.enabled`` directly. Setting ``REPRO_QUERYLOG_DIR``
implies enablement (a mirror directory without recording would be inert).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from ..env import read_flag, read_raw, read_str
from .export import render_span_tree, span_to_dicts
from .ring import Ring
from .trace import Span

__all__ = [
    "FLIGHT_DIR_ENV",
    "QUERYLOG_DIR_ENV",
    "QUERYLOG_ENV",
    "Dump",
    "QueryLog",
    "QueryRecord",
    "Runs",
    "ScanObservation",
]

FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"
QUERYLOG_DIR_ENV = "REPRO_QUERYLOG_DIR"
QUERYLOG_ENV = "REPRO_QUERYLOG"

DUMP_RECORDS = 256  # the newest records a dump holds
KEPT_DUMPS = 8
AUTO_DUMP_INTERVAL_NS = 1_000_000_000  # automatic dumps: one per second

_COUNTER_FIELDS = ("store_lookups", "scan_batches", "scan_rows", "solutions")


def _env_enabled() -> bool:
    if read_raw(QUERYLOG_ENV).strip():
        return read_flag(QUERYLOG_ENV)
    # A mirror directory without recording would be inert: imply enablement.
    return bool(read_str(QUERYLOG_DIR_ENV))


@dataclass(frozen=True)
class ScanObservation:
    """One pattern scan's estimated-vs-actual cardinality.

    ``mask`` is the pattern's bound-position signature — one character per
    S/P/O slot, ``b`` for a constant, ``v`` for a variable (``"vbb"`` =
    variable subject, bound predicate, bound object) — the key the planner
    estimated under. ``leading`` marks scans that executed exactly once,
    unconditioned by earlier rows, and ran to exhaustion over every row
    (no ``LIMIT`` stopped them, no shed tier sampled them), so their actual
    row count is directly comparable to the planner's unconditioned
    estimate; only those feed the drift report. On a store the planner
    counts, ``estimated`` is the pattern's exact cardinality.
    """

    predicate: str | None
    mask: str
    estimated: float | None
    actual: int
    executions: int
    leading: bool

    def to_dict(self) -> dict[str, object]:
        record = asdict(self)
        record["est"] = record.pop("estimated")
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ScanObservation":
        return cls(
            predicate=record.get("predicate"),
            mask=str(record.get("mask", "")),
            estimated=record.get("est"),
            actual=int(record.get("actual", 0)),
            executions=int(record.get("executions", 0)),
            leading=bool(record.get("leading", False)),
        )


@dataclass(frozen=True)
class QueryRecord:
    """One served request (or one library query, interaction or error), as
    the workload analyzer, ``why`` and a dump see it. ``route``, ``status``
    and ``stages`` are set on a request's record (``route`` names an
    interaction or an error's site too); ``shed`` — the shedder's inputs:
    shed-window ``p95_ms`` and size ``n``, the tenant's ``burn`` and the
    ``peak_burn`` — when the shedder was asked; ``violated`` when it blew
    its budget; ``error``, the exception type, when it raised;
    ``attributes``, an interaction's own."""

    sequence: int
    ts: float  # wall-clock (time.time) — the `since` filter key
    digest: str | None
    form: str  # SELECT | ASK | CONSTRUCT | DESCRIBE | GRAPH | FACETS | ""
    strategy: str  # iterator | vectorized:<strategies> | cached | none
    latency_ms: float
    tenant: str | None = None
    interaction_class: str | None = None
    tier: str | None = None
    service: str | None = None
    cache_hit: bool = False
    complete: bool = True  # False: abandoned stream (partial counters)
    trace_id: str | None = None
    store_lookups: int = 0
    scan_batches: int = 0
    scan_rows: int = 0
    solutions: int = 0
    scans: tuple[ScanObservation, ...] = ()
    route: str | None = None
    status: int | None = None
    stages: tuple[tuple[str, float], ...] = ()
    shed: dict[str, float] | None = None
    violated: bool = False
    error: str | None = None
    attributes: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "seq": self.sequence,
            "ts": round(self.ts, 6),
            "digest": self.digest,
            "form": self.form,
            "strategy": self.strategy,
            "latency_ms": round(self.latency_ms, 6),
            "cache_hit": self.cache_hit,
            "store_lookups": self.store_lookups,
            "scan_batches": self.scan_batches,
            "scan_rows": self.scan_rows,
            "solutions": self.solutions,
        }
        for key, value in (("tenant", self.tenant),
                           ("class", self.interaction_class),
                           ("tier", self.tier), ("service", self.service),
                           ("trace_id", self.trace_id),
                           ("route", self.route), ("status", self.status),
                           ("shed", self.shed), ("error", self.error),
                           ("attributes", self.attributes or None)):
            if value is not None:
                record[key] = value
        if self.violated:
            record["violated"] = True
        if not self.complete:
            record["complete"] = False
        if self.scans:
            record["scans"] = [scan.to_dict() for scan in self.scans]
        if self.stages:
            record["stages"] = [[stage, round(ms, 6)]
                                for stage, ms in self.stages]
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "QueryRecord":
        return cls(
            sequence=int(record.get("seq", 0)),
            ts=float(record.get("ts", 0.0)),
            digest=record.get("digest"),
            form=str(record.get("form", "")),
            strategy=str(record.get("strategy", "")),
            latency_ms=float(record.get("latency_ms", 0.0)),
            tenant=record.get("tenant"),
            interaction_class=record.get("class"),
            tier=record.get("tier"),
            service=record.get("service"),
            cache_hit=bool(record.get("cache_hit", False)),
            complete=bool(record.get("complete", True)),
            trace_id=record.get("trace_id"),
            store_lookups=int(record.get("store_lookups", 0)),
            scan_batches=int(record.get("scan_batches", 0)),
            scan_rows=int(record.get("scan_rows", 0)),
            solutions=int(record.get("solutions", 0)),
            scans=tuple(
                ScanObservation.from_dict(scan)
                for scan in record.get("scans", ())
            ),
            route=record.get("route"),
            status=record.get("status"),
            stages=tuple((str(stage), float(ms))
                         for stage, ms in record.get("stages", ())),
            shed=record.get("shed"),
            violated=bool(record.get("violated", False)),
            error=record.get("error"),
            attributes=record.get("attributes"),
        )


@dataclass(frozen=True)
class Dump:
    """One triggered dump: the newest records, and the ``offending`` one
    with its traced ``span`` when there was one."""

    reason: str
    sequence: int
    records: tuple[QueryRecord, ...]
    offending: QueryRecord | None = None
    span: Span | None = None

    def span_tree(self) -> Span | None:
        """The offender's span tree: the traced one, else a single manual
        span rebuilt from its latency and fields, so a dump shows *which*
        operation blew its budget even in untraced runs."""
        offending = self.offending
        if offending is None or self.span is not None:
            return self.span
        attributes = dict(offending.attributes or {})
        attributes.update((key, value) for key, value in (
            ("interaction_class", offending.interaction_class),
            ("tenant", offending.tenant), ("service", offending.service),
            ("status", offending.status), ("tier", offending.tier),
            ("error", offending.error)) if value is not None)
        return Span.manual(offending.route or offending.form,
                           int(offending.latency_ms * 1e6), **attributes)

    def to_jsonl(self) -> str:
        """A header line — the reason; the offender's record, span records
        and rendered span tree — then one ``to_dict`` line per record."""
        header: dict[str, object] = {"flight_dump": self.sequence,
                                     "reason": self.reason,
                                     "entries": len(self.records)}
        if self.offending is not None:
            tree = self.span_tree()
            header["offending"] = self.offending.to_dict()
            header["offending_span_tree"] = span_to_dicts(tree)
            header["offending_span_text"] = render_span_tree(tree)
        lines = [header, *(record.to_dict() for record in self.records)]
        return "".join(json.dumps(line, default=str, sort_keys=True) + "\n"
                       for line in lines)


@dataclass(slots=True)
class Runs:
    """The engine runs of one open request, added up: counters add, scans
    gather, the last run names the digest, form and strategy (a
    federation's members run before the coordinator's own record)."""

    digest: str | None = None
    form: str = ""
    strategy: str = "none"
    cache_hit: bool = False
    complete: bool = True
    scans: list[ScanObservation] = field(default_factory=list)
    counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_COUNTER_FIELDS, 0))

    def fields(self) -> dict[str, object]:
        """What these runs contribute to a :class:`QueryRecord`."""
        return {"digest": self.digest, "form": self.form,
                "strategy": self.strategy, "cache_hit": self.cache_hit,
                "complete": self.complete, "scans": tuple(self.scans),
                **self.counters}


class _Open(threading.local):
    runs: Runs | None = None  # the request open on this thread, if any


class QueryLog:
    """Bounded ring of :class:`QueryRecord` with an optional JSONL mirror
    and the dumps taken from it.

    The :class:`~repro.obs.ring.Ring` retains the most recent ``capacity``
    records by sequence number under concurrent writers; everything ever
    recorded additionally lands in the JSONL mirror when
    :envvar:`REPRO_QUERYLOG_DIR` is set — the ring bounds memory, the
    mirror is the durable workload feed. ``dropped`` counts records the
    ring has pushed out (still present in the mirror). The newest
    ``KEPT_DUMPS`` dumps are a second ring.
    """

    def __init__(
        self, capacity: int = 512, enabled: bool | None = None
    ) -> None:
        self._ring: Ring[QueryRecord] = Ring(capacity)
        self._dumps: Ring[Dump] = Ring(KEPT_DUMPS)
        self.capacity = capacity
        self.enabled = _env_enabled() if enabled is None else enabled
        # Wired by the Observability handle: a zero-arg callable returning
        # the ambient TraceContext (or None), the trace-id fallback for
        # records emitted without an explicit id.
        self.trace_provider: Callable[[], object] | None = None
        self._lock = threading.Lock()
        self._mirror_errors = 0  # guarded-by: _lock
        self._mirror_path: str | None = None  # guarded-by: _lock
        self._mirror_handle = None  # guarded-by: _lock
        self._last_auto_dump_ns: int | None = None  # guarded-by: _lock
        self._open = _Open()

    # -- recording ---------------------------------------------------------

    def collect(self, runs: Runs | None) -> None:
        """Open a request on this thread: from now on :meth:`emit` adds
        each run into ``runs``, not the ring, until ``collect(None)``."""
        self._open.runs = runs

    def emit(
        self,
        *,
        digest: str | None,
        form: str,
        strategy: str,
        latency_ms: float,
        counters: object | None = None,
        scans: Iterable[object] = (),
        trace_id: str | None = None,
        cache_hit: bool = False,
        complete: bool = True,
        solutions: int | None = None,
    ) -> QueryRecord | None:
        """Record one executed query: into the request open on this thread
        (returns ``None``), else as a record of its own. ``None`` too when
        disabled.

        ``counters`` is duck-read for the :class:`EvalStats` fields so the
        obs layer stays import-independent of the SPARQL stack; ``scans``
        accepts :class:`ScanObservation` objects or their dict form (the
        shape :func:`repro.sparql.physical.scan_observations` produces).
        """
        if not self.enabled:
            return None
        values = {
            name: int(getattr(counters, name, 0) or 0)
            for name in _COUNTER_FIELDS
        }
        if solutions is not None:
            values["solutions"] = int(solutions)
        observations = tuple(
            scan if isinstance(scan, ScanObservation)
            else ScanObservation.from_dict(scan)
            for scan in scans
        )
        runs = self._open.runs
        if runs is not None:
            runs.digest, runs.form, runs.strategy = digest, form, strategy
            runs.cache_hit |= cache_hit
            runs.complete &= complete
            runs.scans.extend(observations)
            for name, value in values.items():
                runs.counters[name] += value
            return None
        if trace_id is None and self.trace_provider is not None:
            trace_id = getattr(self.trace_provider(), "trace_id", None)
        return self.append(digest=digest, form=form, strategy=strategy,
                           latency_ms=latency_ms, cache_hit=cache_hit,
                           complete=complete, trace_id=trace_id,
                           scans=observations, **values)

    def append(self, runs: Runs | None = None, **fields) -> QueryRecord:
        """Write one record: what ``runs`` added up (none: no engine ran)
        plus ``fields`` of :class:`QueryRecord` (all but the sequence and
        timestamp)."""
        fields = {**(runs or Runs()).fields(), **fields}
        record = self._ring.add(lambda sequence: QueryRecord(
            sequence=sequence, ts=time.time(), **fields))
        with self._lock:
            self._mirror_locked(record)
        return record

    def dump(self, reason: str, offending: QueryRecord | None = None,
             span: Span | None = None, force: bool = True) -> Dump | None:
        """Snapshot the newest ``DUMP_RECORDS`` records into a
        :class:`Dump`, written to :envvar:`REPRO_FLIGHT_DIR` when set (a
        failed write counts into ``mirror_errors``). With ``force=False``
        (the automatic triggers) dumps are throttled to one per second;
        returns ``None`` when throttled."""
        if not force:
            now = time.monotonic_ns()
            with self._lock:
                last = self._last_auto_dump_ns
                if last is not None and now - last < AUTO_DUMP_INTERVAL_NS:
                    return None
                self._last_auto_dump_ns = now
        records = tuple(self._ring.items()[-DUMP_RECORDS:])
        dump = self._dumps.add(lambda sequence: Dump(
            reason, sequence + 1, records, offending, span))
        directory = read_str(FLIGHT_DIR_ENV)
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
                path = os.path.join(directory,
                                    f"flight-{dump.sequence:04d}.jsonl")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dump.to_jsonl())
            except OSError:
                # A full disk loses the file, not the operation.
                with self._lock:
                    self._mirror_errors += 1
        return dump

    # -- reading -----------------------------------------------------------

    def records(
        self,
        tenant: str | None = None,
        digest: str | None = None,
        since: float | None = None,
        service: str | None = None,
        trace_id: str | None = None,
    ) -> list[QueryRecord]:
        """The retained window, oldest first, optionally filtered."""
        return [
            record for record in self._ring.items()
            if tenant in (None, record.tenant)
            and digest in (None, record.digest)
            and service in (None, record.service)
            and trace_id in (None, record.trace_id)
            and (since is None or record.ts >= since)
        ]

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded_total(self) -> int:
        """Records ever emitted (≥ the retained window once wrapped)."""
        return self._ring.total

    @property
    def dropped(self) -> int:
        """Records the ring pushed out (the JSONL mirror still has them)."""
        return self._ring.dropped

    def dumps(self) -> list[Dump]:
        """The kept dumps, oldest first."""
        return self._dumps.items()

    @property
    def dump_count(self) -> int:
        """Dumps ever taken (the newest ``KEPT_DUMPS`` are kept)."""
        return self._dumps.total

    @property
    def mirror_errors(self) -> int:
        """Failed mirror and dump writes."""
        with self._lock:
            return self._mirror_errors

    @property
    def mirror_path(self) -> str | None:
        with self._lock:
            return self._mirror_path

    # -- JSONL mirror ------------------------------------------------------

    def _mirror_locked(self, record: QueryRecord) -> None:
        """Append one record to the JSONL mirror (caller holds the lock).

        The mirror must never take the query path down with it: any OSError
        counts into ``mirror_errors`` and the query proceeds. Lines are
        flushed per record so an external analyzer (or CI) sees a complete
        prefix at any moment.
        """
        directory = read_str(QUERYLOG_DIR_ENV)
        if not directory:
            return
        try:
            if self._mirror_handle is None:
                os.makedirs(directory, exist_ok=True)
                path = os.path.join(
                    directory, f"queries-{os.getpid()}.jsonl"
                )
                self._mirror_handle = open(path, "a", encoding="utf-8")
                self._mirror_path = path
            self._mirror_handle.write(
                json.dumps(record.to_dict(), default=str, sort_keys=True)
                + "\n"
            )
            self._mirror_handle.flush()
        except OSError:
            self._mirror_errors += 1

    def reset(self) -> None:
        """Clear the records and dumps and re-read env enablement (tests)."""
        self._ring.clear()
        self._dumps.clear()
        with self._lock:
            if self._mirror_handle is not None:
                try:
                    self._mirror_handle.close()
                except OSError:
                    # repro: swallow(best-effort teardown; write failures
                    # were already counted into mirror_errors)
                    pass
            self._mirror_handle = self._mirror_path = None
            self._mirror_errors = 0
            self._last_auto_dump_ns = None
        self.enabled = _env_enabled()
        self._open = _Open()
