"""Structured query log: one durable record per executed query.

The survey's interactivity claims are claims about a *workload* — yet until
now the system could trace a single query (:mod:`repro.obs.trace`) or dump
the recent past on a violation (:mod:`repro.obs.flight`), but could not
answer "which plans are slow, which estimates are wrong, what do tenants
actually run". This module is the missing substrate: every query the
engines execute emits one :class:`QueryRecord` — plan digest, execution
strategy, tenant, interaction class, shed tier, cache outcome, trace id,
latency, the :class:`~repro.sparql.physical.EvalStats` resource counters,
and per-scan estimated-vs-actual cardinality observations — into a bounded
in-memory ring that is additionally *mirrored* to JSONL when the
:envvar:`REPRO_QUERYLOG_DIR` environment variable names a directory.

The ring answers live questions (``GET /debug/queries`` on the server, the
workload analyzer over a running process); the JSONL mirror is the durable
feed :mod:`repro.obs.workload` analyzes offline and CI uploads as an
artifact. Recording is O(1) per query: one ring append and (mirror only)
one buffered line append.

Enablement follows the tracer's precedent — off by default so library hot
paths pay a single attribute check, switched on by the serving layer, the
:envvar:`REPRO_QUERYLOG` environment variable, or setting
``OBS.querylog.enabled`` directly. Setting ``REPRO_QUERYLOG_DIR`` implies
enablement (a mirror directory without recording would be inert).

Server-side request context (tenant, interaction class, shed tier,
service) travels to the engine via a thread-local :meth:`QueryLog.serving`
scope, so the engines stay ignorant of HTTP while their records still
carry full serving attribution.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

from ..env import read_flag, read_raw, read_str
from .ring import Ring
from .trace import ThreadStack

__all__ = [
    "QUERYLOG_DIR_ENV",
    "QUERYLOG_ENV",
    "QueryLog",
    "QueryRecord",
    "ScanObservation",
]

QUERYLOG_DIR_ENV = "REPRO_QUERYLOG_DIR"
QUERYLOG_ENV = "REPRO_QUERYLOG"

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
    estimated under. ``leading`` marks scans that executed exactly once
    against an empty ambient binding and ran to exhaustion over every row
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
    """One executed query, as the workload analyzer sees it."""

    sequence: int
    ts: float  # wall-clock (time.time) — the `since` filter key
    digest: str | None
    form: str  # SELECT | ASK | CONSTRUCT | DESCRIBE | GRAPH
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
                           ("trace_id", self.trace_id)):
            if value is not None:
                record[key] = value
        if not self.complete:
            record["complete"] = False
        if self.scans:
            record["scans"] = [scan.to_dict() for scan in self.scans]
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
        )


@dataclass(slots=True)
class _ServingContext:
    """Mutable per-request attribution, stacked thread-locally.

    The server opens one per admitted request; the shed tier is decided
    later than admission, so the context is mutable and
    :meth:`QueryLog.annotate_serving` updates the innermost scope.
    """

    tenant: str | None = None
    interaction_class: str | None = None
    tier: str | None = None
    service: str | None = None


class QueryLog:
    """Bounded ring of :class:`QueryRecord` with an optional JSONL mirror.

    The :class:`~repro.obs.ring.Ring` retains the most recent ``capacity``
    records by sequence number under concurrent writers; everything ever
    recorded additionally lands in the JSONL mirror when
    :envvar:`REPRO_QUERYLOG_DIR` is set — the ring bounds memory, the
    mirror is the durable workload feed. ``dropped`` counts records the
    ring has pushed out (still present in the mirror).
    """

    def __init__(
        self, capacity: int = 512, enabled: bool | None = None
    ) -> None:
        self._ring: Ring[QueryRecord] = Ring(capacity)
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
        self._local = ThreadStack()

    # -- serving context ---------------------------------------------------

    @contextmanager
    def serving(
        self,
        tenant: str | None = None,
        interaction_class: str | None = None,
        tier: str | None = None,
        service: str | None = None,
    ) -> Iterator[_ServingContext]:
        """Attribute every record emitted in this scope (thread-local)."""
        stack = self._local.stack
        context = _ServingContext(tenant, interaction_class, tier, service)
        stack.append(context)
        try:
            yield context
        finally:
            stack.pop()

    def annotate_serving(self, **fields: str | None) -> None:
        """Update the innermost serving scope (e.g. the shed tier, which
        is decided after admission). No-op outside a serving scope."""
        context = self.current_serving()
        if context is None:
            return
        for key, value in fields.items():
            setattr(context, key, value)

    def current_serving(self) -> _ServingContext | None:
        stack = self._local.stack
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

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
        """Record one executed query; returns ``None`` when disabled.

        ``counters`` is duck-read for the :class:`EvalStats` fields so the
        obs layer stays import-independent of the SPARQL stack; ``scans``
        accepts :class:`ScanObservation` objects or their dict form (the
        shape :func:`repro.sparql.physical.scan_observations` produces).
        """
        if not self.enabled:
            return None
        if trace_id is None and self.trace_provider is not None:
            context = self.trace_provider()
            trace_id = getattr(context, "trace_id", None)
        serving = self.current_serving()
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
        record = self._ring.add(lambda sequence: QueryRecord(
            sequence=sequence,
            ts=time.time(),
            digest=digest,
            form=form,
            strategy=strategy,
            latency_ms=latency_ms,
            tenant=serving.tenant if serving else None,
            interaction_class=serving.interaction_class if serving else None,
            tier=serving.tier if serving else None,
            service=serving.service if serving else None,
            cache_hit=cache_hit,
            complete=complete,
            trace_id=trace_id,
            scans=observations,
            **values,
        ))
        with self._lock:
            self._mirror_locked(record)
        return record

    def emit_cache_hit(
        self,
        *,
        digest: str | None,
        form: str,
        latency_ms: float,
        solutions: int = 0,
        trace_id: str | None = None,
    ) -> QueryRecord | None:
        """A cache-served query: ``cache_hit=true``, zeroed scan counters —
        visible to the workload analyzer instead of vanishing."""
        return self.emit(digest=digest, form=form, strategy="cached",
                         latency_ms=latency_ms, trace_id=trace_id,
                         cache_hit=True, solutions=solutions)

    # -- reading -----------------------------------------------------------

    def records(
        self,
        tenant: str | None = None,
        digest: str | None = None,
        since: float | None = None,
        since_seq: int | None = None,
        service: str | None = None,
    ) -> list[QueryRecord]:
        """The retained window, oldest first, optionally filtered."""
        return [
            record for record in self._ring.items()
            if tenant in (None, record.tenant)
            and digest in (None, record.digest)
            and service in (None, record.service)
            and (since is None or record.ts >= since)
            and (since_seq is None or record.sequence >= since_seq)
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

    @property
    def mirror_errors(self) -> int:
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
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
            )
            self._mirror_handle.flush()
        except OSError:
            self._mirror_errors += 1

    def reset(self) -> None:
        """Clear the ring and re-read env enablement (tests)."""
        self._ring.clear()
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
        self.enabled = _env_enabled()
        self._local = ThreadStack()
