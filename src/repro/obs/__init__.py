"""repro.obs — unified telemetry: spans, metrics, progress, budgets, log.

One process-wide :class:`Observability` handle (``OBS``) owns the tracer,
the metrics registry, the progress emitter, the latency policy
(``OBS.budgets``: the class budgets and the one judge of a latency against
them — budget report, tenant burn rate and shed window), and the query
log, the one recent history of finished operations and the dumps taken
from it. Every bounded recent history among them is one
:class:`~repro.obs.ring.Ring`. Hot call sites across the
query/store/cache stack guard on a single attribute check::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.metrics.counter("store.paged.page_miss").inc()

Tracing starts disabled; enable it with ``OBS.configure``, the
:envvar:`REPRO_TRACE` environment variable, or the :func:`trace_query`
convenience context manager::

    from repro.obs import trace_query, render_span_tree

    with trace_query("dashboard refresh") as span:
        engine.query(text)
    print(render_span_tree(span))

*Interactions* — the user-facing operations of the exploration layer — are
accounted **always**, not only under tracing: each one is timed against its
class's latency budget (``interactive`` 100 ms, ``navigation`` 300 ms,
``progressive`` 1 s cadence), lands in the query log as one record, and
emits a span tagged ``interaction_class`` when tracing is on. A budget
violation or an ``obs.errors`` hit dumps the newest records (JSONL +
offending span tree) so slow interactions are diagnosable after the
fact::

    with OBS.interaction("facets.pivot", "navigation") as act:
        browser = browser.pivot(predicate)
    print(OBS.budgets.report().render())

:meth:`Observability.account` is that accounting, once per finished
operation: an :class:`Interaction` calls it on exit, and the server calls
it for each request it answered, with the request's one total latency —
judged, then written as the one query-log record
(:mod:`repro.obs.querylog`) that carries it.

Error accounting is always on (exceptions are rare, visibility is cheap):
:func:`record_error` bumps the ``obs.errors`` counter labelled with the
site and exception type — label cardinality capped, overflow folded into
``other`` — replacing silent ``except: pass`` swallowing.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from ..env import read_flag
from .budget import (
    BATCH,
    INTERACTIVE,
    NAVIGATION,
    PROGRESSIVE,
    LatencyBudget,
    LatencyPolicy,
)
from .export import (
    render_span_tree,
    span_to_dicts,
    spans_to_jsonl,
    telemetry_payload,
)
from .metrics import (
    TIME_MS_BUCKETS,
    BoundedLabelSet,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .progress import ProgressEmitter, ProgressEvent
from .querylog import QueryLog, Runs
from .trace import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
)

# What callers across the tree import from the package; everything else is
# imported from its module (``repro.obs.export``, ``repro.obs.querylog``, …).
__all__ = [
    "OBS",
    "Observability",
    "Interaction",
    "record_error",
    "trace_query",
    "track",
    # trace
    "Span",
    "NOOP_SPAN",
    "SpanRecorder",
    "TraceContext",
    "Tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_MS_BUCKETS",
    # progress
    "ProgressEmitter",
    "ProgressEvent",
    # budgets
    "INTERACTIVE",
    "NAVIGATION",
    "PROGRESSIVE",
    "BATCH",
    "LatencyBudget",
    "LatencyPolicy",
    # query log
    "QueryLog",
    # export
    "span_to_dicts",
    "spans_to_jsonl",
    "render_span_tree",
    "telemetry_payload",
]

_clock = time.perf_counter_ns

# Cardinality caps for the obs.errors counter labels: sites are code-chosen
# (bounded in practice), exception types are input-driven (unbounded).
_ERROR_SITE_CAP = 64
_ERROR_EXCEPTION_CAP = 16


def _env_enabled() -> bool:
    return read_flag("REPRO_TRACE")


class Interaction:
    """One budget-accounted interaction (context manager).

    Always: times the body and accounts it (:meth:`Observability.account`).
    When tracing is enabled: additionally opens a span tagged
    ``interaction_class`` under the ambient stack, which a violation's
    dump carries.
    """

    __slots__ = ("_obs", "name", "interaction_class", "attributes",
                 "_span", "_start_ns")

    def __init__(self, obs: "Observability", name: str,
                 interaction_class: str, attributes: dict[str, object]) -> None:
        self._obs = obs
        self.name = name
        self.interaction_class = interaction_class
        self.attributes = attributes
        self._span: Span | NoopSpan = NOOP_SPAN
        self._start_ns = 0

    def set_attribute(self, key: str, value: object) -> None:
        """Attach ``key=value`` to both the record and the span."""
        self.attributes[key] = value
        self._span.set_attribute(key, value)

    def __enter__(self) -> "Interaction":
        self._start_ns = _clock()
        self._span = self._obs.tracer.span(
            self.name, interaction_class=self.interaction_class,
            **self.attributes,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.__exit__(exc_type, exc, tb)
        obs = self._obs
        obs.account(None, self.name, self.interaction_class,
                    (_clock() - self._start_ns) / 1e6, obs.budgets,
                    self._span, attributes=self.attributes or None,
                    error=exc_type and exc_type.__name__)


class Observability:
    """The process-wide telemetry handle: tracer + metrics + progress +
    budgets + query log.

    ``enabled`` is the one flag hot paths check; it mirrors
    ``tracer.enabled`` so both spellings stay consistent. Budget
    accounting and its query-log record are *always on* — they cost a
    couple of clock reads and one ring append per interaction, and
    interactions are user-scale events, not row-scale ones.
    """

    __slots__ = ("enabled", "tracer", "metrics", "progress", "budgets",
                 "querylog", "_error_sites", "_error_exceptions",
                 "_progress_last_ns")

    def __init__(self, enabled: bool | None = None) -> None:
        if enabled is None:
            enabled = _env_enabled()
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry()
        self.progress = ProgressEmitter(error_counter=self._count_error)
        self.querylog = QueryLog()
        # Records emitted without an explicit trace id inherit the ambient
        # trace of this handle's tracer.
        self.querylog.trace_provider = self.tracer.current_context
        self.reset()

    # -- error accounting --------------------------------------------------

    def _count_error(self, site: str, exc: BaseException) -> None:
        """Bump ``obs.errors``, append an error record and dump."""
        folded_site = self._error_sites.fold(site)
        exception = type(exc).__name__
        self.metrics.counter(
            "obs.errors", site=folded_site,
            exception=self._error_exceptions.fold(exception),
        ).inc()
        record = self.querylog.append(route=folded_site, latency_ms=0.0,
                                      error=exception,
                                      attributes={"message": str(exc)})
        self.querylog.dump(f"error:{folded_site}", offending=record,
                           force=False)

    # -- interactions ------------------------------------------------------

    def interaction(self, name: str, interaction_class: str = INTERACTIVE,
                    **attributes: object) -> Interaction:
        """Open one budget-accounted interaction (see :class:`Interaction`)."""
        return Interaction(self, name, interaction_class, dict(attributes))

    def account(self, runs: Runs | None, name: str, interaction_class: str,
                duration_ms: float, policy: LatencyPolicy | None,
                span: Span | NoopSpan = NOOP_SPAN, tenant: str | None = None,
                shed_window: bool = False, **fields: object) -> bool:
        """Account one finished operation, once: ``policy`` judges
        ``duration_ms`` — histogram, violation count, and with a ``tenant``
        its windows (``shed_window``: the shed window too); ``None`` records
        without judging (an admission refusal). Then one query-log record
        is appended — what ``runs`` added up plus ``fields`` of
        :class:`~repro.obs.querylog.QueryRecord`, ``route=name`` — and over
        budget the newest records are dumped with ``span``. Returns whether
        it was over."""
        violated = policy is not None and policy.judge(
            tenant, interaction_class, duration_ms, shed_window)
        record = self.querylog.append(
            runs, route=name, interaction_class=interaction_class,
            latency_ms=duration_ms, tenant=tenant, violated=violated,
            **fields)
        if violated:
            self.querylog.dump(f"budget:{interaction_class}:{name}",
                               offending=record,
                               span=None if span is NOOP_SPAN else span,
                               force=False)
        return violated

    # -- progress → cadence budget -----------------------------------------

    def _progress_cadence(self, event: ProgressEvent) -> None:
        """Always-on tap: hold progressive updates to the ``progressive``
        cadence budget (the gap between successive events of one
        operation, not their duration)."""
        previous = self._progress_last_ns.get(event.operation)
        self._progress_last_ns[event.operation] = event.monotonic_ns
        if previous is not None:
            gap_ms = (event.monotonic_ns - previous) / 1e6
            self.budgets.judge(None, PROGRESSIVE, gap_ms)

    # -- configuration -----------------------------------------------------

    def configure(self, enabled: bool | None = None,
                  max_spans: int | None = None) -> "Observability":
        if max_spans is not None:
            self.tracer.recorder = SpanRecorder(max_spans)
        if enabled is not None:
            self.enabled = enabled
            self.tracer.enabled = enabled
        return self

    def reset(self) -> None:
        """Clear recorded spans, metrics, progress, budget and query-log
        state (tests); what ``__init__`` does not build is built here."""
        self.tracer.reset()
        self.metrics.reset()
        self.progress.reset()
        # a fresh policy also restores any budget overrides to the defaults
        self.budgets = LatencyPolicy(metrics=self.metrics)
        self.querylog.reset()
        self._error_sites = BoundedLabelSet(_ERROR_SITE_CAP)
        self._error_exceptions = BoundedLabelSet(_ERROR_EXCEPTION_CAP)
        self._progress_last_ns: dict[str, int] = {}
        # ProgressEmitter.reset dropped all subscribers and taps; re-wire
        # the always-on cadence judge.
        self.progress.tap(self._progress_cadence)


OBS = Observability()


def record_error(site: str, exc: BaseException) -> None:
    """Count an exception in the ``obs.errors`` metric (always on)."""
    OBS._count_error(site, exc)


def track(name: str, interaction_class: str = INTERACTIVE,
          **attributes: object) -> Callable:
    """Decorator form of :meth:`Observability.interaction`.

    The wrapped call is budget-accounted and recorded on the global
    handle; under tracing it runs inside a span tagged
    ``interaction_class``.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            with OBS.interaction(name, interaction_class, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def trace_query(label: str = "query", **attributes: object) -> Iterator[Span]:
    """Trace one logical operation, enabling the tracer for its duration.

    The span is yielded so callers can attach attributes or render it;
    tracing is restored to its previous state on exit.
    """
    previous = OBS.enabled
    OBS.configure(enabled=True)
    span = OBS.tracer.span(label, **attributes)
    try:
        with span:
            yield span
    finally:
        OBS.configure(enabled=previous)
