"""Hierarchical span tracing with a no-op fast path.

The survey's efficiency requirements (Section 2) are claims about *where
time goes* — caching, incremental computation, progressive approximation
all trade one kind of work for another. This module is the measuring
instrument: a dependency-free tracer whose spans nest (query → operator →
store access), survive generator suspension (pull-based operators yield
mid-span), and cost a single attribute check per call site when disabled.

Design points:

* **Monotonic clocks** — all durations come from ``time.perf_counter_ns``;
  wall-clock timestamps are never compared.
* **Suspension-aware durations** — :meth:`Span.pause` / :meth:`Span.resume`
  accumulate *active* nanoseconds, so a generator that yields mid-span is
  charged only for the time it actually ran. :func:`traced_iter` wraps any
  iterator with that bookkeeping.
* **Thread safety** — the ambient span stack is thread-local; the recorder
  of finished root spans takes a lock only when a root span closes.
* **No sampling** — an enabled tracer records every root span; the
  recorder's bound is what limits memory.
* **Disabled fast path** — :meth:`Tracer.span` returns one shared
  :class:`NoopSpan` singleton when tracing is off: no allocation, no
  clock read, no stack mutation.
* **Wire identity** — every span carries a random 64-bit ``span_id`` and
  inherits (or mints) a ``trace_id``. A :class:`TraceContext` travels on
  HTTP requests as ``X-Repro-Trace`` / ``X-Repro-Span`` headers, so a
  span opened in another process with ``remote_parent=ctx`` continues the
  caller's trace and the per-process JSONL exports stitch back into one
  cross-process tree (:func:`repro.obs.export.stitch_records`).
"""

from __future__ import annotations

import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .ring import Ring

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "SpanRecorder",
    "TraceContext",
    "Tracer",
    "traced_iter",
]

_clock = time.perf_counter_ns

TRACE_HEADER = "X-Repro-Trace"
SPAN_HEADER = "X-Repro-Span"

_ID_PATTERN = re.compile(r"^[0-9a-f]{1,32}$")


def _new_id() -> str:
    """A random 64-bit id in lowercase hex (trace and span identity)."""
    return f"{random.getrandbits(64):016x}"


@dataclass(frozen=True)
class TraceContext:
    """The wire form of "where in whose trace am I": trace id + span id.

    ``to_headers`` / ``from_headers`` carry the context across HTTP hops;
    a span opened with ``remote_parent=ctx`` in the receiving process
    continues the trace, and the exported record's ``parent_span_id``
    points back at the caller's wire-call span so the per-process JSONL
    files stitch into a single tree.
    """

    trace_id: str
    span_id: str

    def to_headers(self) -> dict[str, str]:
        return {TRACE_HEADER: self.trace_id, SPAN_HEADER: self.span_id}

    @classmethod
    def from_headers(
        cls, headers: Mapping[str, str]
    ) -> "TraceContext | None":
        """Parse a context from (case-insensitive) request headers.

        Returns ``None`` when the headers are absent or malformed — a
        garbage trace id from an arbitrary client must not corrupt the
        receiving process's telemetry.
        """
        lowered = {str(k).lower(): str(v) for k, v in headers.items()}
        trace_id = lowered.get(TRACE_HEADER.lower(), "").strip().lower()
        span_id = lowered.get(SPAN_HEADER.lower(), "").strip().lower()
        if not _ID_PATTERN.match(trace_id) or not _ID_PATTERN.match(span_id):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed region with attributes and child spans.

    Duration is *active* time: the sum of run segments between
    ``start``/``resume`` and ``pause``/``end``. For spans that never pause
    this equals wall time; for generator-backed spans it excludes the time
    the generator sat suspended in its consumer.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_ns",
        "end_ns",
        "_active_ns",
        "_resumed_at",
        "error",
        "trace_id",
        "span_id",
        "remote_parent_id",
    )

    def __init__(self, name: str, **attributes: object) -> None:
        self.name = name
        self.attributes: dict[str, object] = dict(attributes)
        self.children: list[Span] = []
        self.start_ns = _clock()
        self.end_ns: int | None = None
        self._active_ns = 0
        self._resumed_at: int | None = self.start_ns
        self.error: str | None = None
        # Wire identity: the tracer fills trace_id in (inherit from parent,
        # continue a remote context, or mint a fresh one for new roots);
        # bare/manual spans stitch under whatever tree attaches them.
        self.trace_id: str | None = None
        self.span_id: str = _new_id()
        self.remote_parent_id: str | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def manual(
        cls, name: str, duration_ns: int, **attributes: object
    ) -> "Span":
        """A pre-measured span (e.g. built post-hoc from operator timers)."""
        span = cls(name, **attributes)
        span._resumed_at = None
        span._active_ns = int(duration_ns)
        span.end_ns = span.start_ns + int(duration_ns)
        return span

    # -- lifecycle ---------------------------------------------------------

    def pause(self) -> None:
        """Stop charging time to this span (generator about to yield)."""
        if self._resumed_at is not None:
            self._active_ns += _clock() - self._resumed_at
            self._resumed_at = None

    def resume(self) -> None:
        """Start charging time again (generator resumed)."""
        if self._resumed_at is None:
            self._resumed_at = _clock()

    def end(self) -> None:
        if self.end_ns is not None:
            return
        now = _clock()
        if self._resumed_at is not None:
            self._active_ns += now - self._resumed_at
            self._resumed_at = None
        self.end_ns = now

    # -- data --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Active nanoseconds so far (final once :meth:`end` has run)."""
        active = self._active_ns
        if self._resumed_at is not None:
            active += _clock() - self._resumed_at
        return active

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def context(self) -> TraceContext | None:
        """This span's wire context (``None`` until a trace id is known)."""
        if self.trace_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def add_child(self, child: "Span") -> None:
        self.children.append(child)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.error = exc_type.__name__
        # The tracer that opened this span closes it (pops the stack);
        # manual use (Span(...) as plain context manager) just ends it.
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ns is None else f"{self.duration_ms:.3f}ms"
        return f"<Span {self.name!r} {state} children={len(self.children)}>"


class NoopSpan:
    """The shared do-nothing span returned while tracing is disabled.

    Every method is a no-op and every instance-producing call returns the
    singleton itself, so the disabled path allocates nothing.
    """

    __slots__ = ()

    name = ""
    attributes: dict[str, object] = {}
    children: tuple = ()
    duration_ns = 0
    duration_ms = 0.0
    finished = True
    error = None
    trace_id = None
    span_id = ""
    remote_parent_id = None

    def _nothing(self, *args: object) -> None:
        return None

    pause = resume = end = set_attribute = context = add_child = _nothing
    __exit__ = _nothing

    def walk(self) -> Iterator["NoopSpan"]:
        return iter(())

    def find(self, name: str) -> list:
        return []

    def __enter__(self) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()


class SpanRecorder(Ring[Span]):
    """Thread-safe sink of the newest ``max_spans`` finished root spans;
    ``dropped`` counts the older ones pushed out."""

    def __init__(self, max_spans: int = 10_000) -> None:
        super().__init__(max_spans)

    record = Ring.append
    spans = Ring.items


class ThreadStack(threading.local):
    """A list per thread: the ambient span stack."""

    def __init__(self) -> None:
        self.stack: list = []


class Tracer:
    """Creates and nests spans; owns the recorder.

    ``enabled`` is the one attribute hot call sites check. When False,
    :meth:`span` returns :data:`NOOP_SPAN` immediately.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 10_000) -> None:
        self.enabled = enabled
        self.recorder = SpanRecorder(max_spans)
        self._local = ThreadStack()

    def span(
        self,
        name: str,
        remote_parent: TraceContext | None = None,
        **attributes: object,
    ) -> Span | NoopSpan:
        """Open a span nested under the current one (context manager).

        Closing the span (the ``with`` exit) pops it from the ambient
        stack; root spans additionally land in the recorder.

        ``remote_parent`` continues a trace started in another process:
        the span adopts the context's trace id and remembers the caller's
        span id, so the exported record stitches under the caller's
        wire-call span (:func:`repro.obs.export.stitch_records`).
        """
        if not self.enabled:
            return NOOP_SPAN
        stack = self._local.stack
        span = _TracerSpan(self, name, **attributes)
        if stack:
            parent = stack[-1]
            parent.add_child(span)
            span.trace_id = parent.trace_id
        elif remote_parent is not None:
            span.trace_id = remote_parent.trace_id
            span.remote_parent_id = remote_parent.span_id
        else:
            span.trace_id = _new_id()
        stack.append(span)
        return span

    def current(self) -> Span | None:
        stack = self._local.stack
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """The ambient span's wire context, or ``None`` outside any trace."""
        current = self.current()
        if current is None:
            return None
        return current.context()

    def reset(self) -> None:
        self.recorder.clear()
        self._local = ThreadStack()


class _TracerSpan(Span):
    """A tracer-owned span: closing it maintains the ambient stack."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer, name: str, **attributes: object) -> None:
        super().__init__(name, **attributes)
        self._tracer = tracer

    def end(self) -> None:
        if self.end_ns is not None:
            return
        super().end()
        tracer = self._tracer
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # leaked children above us: pop through
            while stack and stack[-1] is not self:
                stack.pop()
            if stack:
                stack.pop()
        if not stack:
            tracer.recorder.record(self)

    def pause(self) -> None:
        """Pause and step out of the ambient stack (generator yielding)."""
        super().pause()
        stack = self._tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()

    def resume(self) -> None:
        """Resume and re-enter the ambient stack (generator resumed)."""
        super().resume()
        stack = self._tracer._local.stack
        if not stack or stack[-1] is not self:
            stack.append(self)


def traced_iter(
    tracer: Tracer, name: str, iterable: Iterable, **attributes: object
) -> Iterator:
    """Iterate ``iterable`` inside a suspension-aware span.

    The span is active only while the underlying iterator is computing the
    next item; time spent by the consumer between items is not charged.
    The item count lands in the span's ``items`` attribute.
    """
    if not tracer.enabled:
        yield from iterable
        return
    span = tracer.span(name, **attributes)
    count = 0
    iterator = iter(iterable)
    try:
        while True:
            span.resume()
            try:
                item = next(iterator)
            except StopIteration:
                break
            finally:
                span.pause()
            count += 1
            yield item
    finally:
        span.set_attribute("items", count)
        span.resume()
        span.end()
