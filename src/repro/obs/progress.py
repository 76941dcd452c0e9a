"""Progress-event streams for long-running operators.

Incremental and progressive computation (survey Section 2: "approximate
answers are computed incrementally over progressively larger samples") is
only useful if the UI can *watch* it happen. :class:`ProgressEmitter` is
the channel: long-running operators — progressive aggregation, incremental
HETree materialization, bulk store builds — emit :class:`ProgressEvent`
records, and any number of subscribers (a UI, a logger, a test) observe
them without the operator knowing who is listening.

Emission is a no-op costing one attribute check when nobody subscribes.
Subscriber exceptions never propagate into the operator; they are routed
to the telemetry error counter (``obs.errors`` with the exception type as
a label) so failures are visible instead of silently swallowed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ProgressEvent", "ProgressEmitter"]

Subscriber = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of a long-running operation's advancement."""

    operation: str
    completed: int
    total: int | None = None
    monotonic_ns: int = field(default_factory=time.perf_counter_ns)
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def fraction(self) -> float | None:
        """Completion in [0, 1], or ``None`` when the total is unknown."""
        if self.total is None or self.total <= 0:
            return None
        return min(1.0, self.completed / self.total)

    def __str__(self) -> str:
        if self.fraction is None:
            return f"{self.operation}: {self.completed} done"
        return f"{self.operation}: {self.completed}/{self.total} ({self.fraction:.0%})"


class ProgressEmitter:
    """Fan-out of progress events to registered subscribers.

    ``error_counter`` is a callable ``(operation, exception) -> None`` used
    to account subscriber failures; the package wires it to the metrics
    registry's ``obs.errors`` counter.
    """

    def __init__(
        self,
        error_counter: Callable[[str, BaseException], None] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Subscriber] = []  # guarded-by: _lock
        self._taps: list[Subscriber] = []  # guarded-by: _lock
        self._error_counter = error_counter

    # -- subscription ------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register; returns an (idempotent) unsubscribe callable."""
        return self._register(subscriber, tap=False)

    def tap(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register an *internal* observer (e.g. the flight recorder).

        Taps receive every published event but do not count toward
        :attr:`has_subscribers`, so guarded emitters keep their no-listener
        fast path: an operator that skips :meth:`emit` when nobody is
        watching stays silent even while taps are installed.
        """
        return self._register(subscriber, tap=True)

    def _register(self, subscriber: Subscriber,
                  tap: bool) -> Callable[[], None]:
        with self._lock:
            listeners = self._taps if tap else self._subscribers
            listeners.append(subscriber)

        def remove() -> None:
            with self._lock:
                if subscriber in listeners:
                    listeners.remove(subscriber)

        return remove

    @property
    def has_subscribers(self) -> bool:
        # repro: noqa(RPA001) — lock-free truthiness probe
        return bool(self._subscribers)

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        operation: str,
        completed: int,
        total: int | None = None,
        **attributes: object,
    ) -> ProgressEvent | None:
        """Build and fan out one event; returns it (None if nobody listens).

        The no-listener path is the disabled fast path: one truthiness
        check, no allocation. The recent events themselves are the flight
        recorder's ``progress`` entries (its tap).
        """
        # the no-listener fast path is one lock-free truthiness
        # check by design
        # repro: noqa(RPA001)
        if not self._subscribers:
            return None
        event = ProgressEvent(operation, completed, total, attributes=attributes)
        self.publish(event)
        return event

    def publish(self, event: ProgressEvent) -> None:
        with self._lock:
            subscribers = list(self._subscribers) + list(self._taps)
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception as exc:
                if self._error_counter is not None:
                    self._error_counter(f"progress.{event.operation}", exc)

    def reset(self) -> None:
        with self._lock:
            self._subscribers.clear()
            self._taps.clear()
