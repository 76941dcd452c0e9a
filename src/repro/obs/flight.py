"""Always-on flight recorder: the last N interactions, cheaply, always.

Tracing (:mod:`repro.obs.trace`) answers "where did the time go?" — but only
when it was switched on *before* the slow interaction happened. The flight
recorder closes that gap: a bounded ring buffer records every interaction,
progress event, and error as it happens (one lock-guarded append each),
and when something goes wrong — a latency budget is violated, or the
``obs.errors`` counter fires — the recent history is *dumped* automatically:
a JSONL transcript plus the offending span tree, diagnosable after the fact
without re-running under ``REPRO_TRACE=1``.

Dumps are kept in memory (bounded by ``max_dumps``) and, when the
:envvar:`REPRO_FLIGHT_DIR` environment variable names a directory, also
written there as ``flight-<seq>.jsonl`` files (CI uploads these as
artifacts). Automatic dumps are throttled (``auto_dump_interval_ms``) so an
error storm produces one dump per window, not thousands.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..env import read_str
from .export import render_span_tree, span_to_dicts
from .ring import Ring
from .trace import Span

__all__ = ["FlightEntry", "FlightDump", "FlightRecorder"]

FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class FlightEntry:
    """One ring-buffer record: an interaction, progress event, or error."""

    kind: str  # "interaction" | "progress" | "error" | "note"
    name: str
    sequence: int
    monotonic_ns: int = field(default_factory=_clock)
    duration_ms: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    violated: bool = False
    span: Span | None = None

    def to_dict(self, include_span: bool = False) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "sequence": self.sequence,
            "monotonic_ns": self.monotonic_ns,
        }
        if self.duration_ms is not None:
            record["duration_ms"] = round(self.duration_ms, 6)
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.violated:
            record["violated"] = True
        if include_span and self.span is not None:
            record["span_tree"] = span_to_dicts(self.span)
        return record

    def span_tree(self) -> Span:
        """The entry's span tree; synthesized when tracing was disabled.

        Interactions always yield a tree: either the real traced span
        (with operator children etc.) or a single manual span rebuilt from
        the recorded duration and attributes — so a dump can show *which*
        interaction blew its budget even in untraced runs.
        """
        if self.span is not None:
            return self.span
        duration_ns = int((self.duration_ms or 0.0) * 1e6)
        return Span.manual(self.name, duration_ns, **self.attributes)


@dataclass(frozen=True)
class FlightDump:
    """One triggered dump: the recent history plus the offending entry."""

    reason: str
    sequence: int
    entries: tuple[FlightEntry, ...]
    offending: FlightEntry | None = None

    def to_jsonl(self) -> str:
        """Header line, then one JSON object per recorded entry.

        The header carries the reason and, for the offending entry, both
        the flattened span records and the human-readable span tree.
        """
        header: dict[str, object] = {
            "flight_dump": self.sequence,
            "reason": self.reason,
            "entries": len(self.entries),
        }
        if self.offending is not None:
            tree = self.offending.span_tree()
            header["offending"] = self.offending.to_dict()
            header["offending_span_tree"] = span_to_dicts(tree)
            header["offending_span_text"] = render_span_tree(tree)
        lines = [json.dumps(header, default=str, sort_keys=True)]
        lines.extend(
            json.dumps(entry.to_dict(include_span=True), default=str,
                       sort_keys=True)
            for entry in self.entries
        )
        return "\n".join(lines) + "\n"


class FlightRecorder:
    """Bounded ring of telemetry entries with automatic dumping.

    Entries and kept dumps are each a :class:`~repro.obs.ring.Ring`: the
    retained entries are always the most recent ``capacity`` records by
    sequence number, with no tearing and no unbounded growth.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_dumps: int = 8,
        auto_dump_interval_ms: float = 1_000.0,
    ) -> None:
        self._entries: Ring[FlightEntry] = Ring(capacity)
        self._dumps: Ring[FlightDump] = Ring(max_dumps)
        self.auto_dump_interval_ms = auto_dump_interval_ms
        # Wired by Observability to a *non-dumping* obs.errors bump: the
        # recorder's own failures must be counted without re-entering the
        # recorder (a failing disk would otherwise recurse through dump()).
        self.error_counter: Callable[[str, BaseException], None] | None \
            = None
        self._lock = threading.Lock()
        self._last_auto_dump_ns: int | None = None  # guarded-by: _lock

    # -- recording ---------------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        duration_ms: float | None = None,
        attributes: dict[str, object] | None = None,
        violated: bool = False,
        span: Span | None = None,
    ) -> FlightEntry:
        return self._entries.add(lambda sequence: FlightEntry(
            kind=kind,
            name=name,
            sequence=sequence,
            duration_ms=duration_ms,
            attributes=attributes or {},
            violated=violated,
            span=span,
        ))

    @property
    def recorded_total(self) -> int:
        """Entries ever recorded (≥ len(entries()) once the ring wraps)."""
        return self._entries.total

    def entries(self) -> list[FlightEntry]:
        """The retained window, oldest first."""
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    # -- dumping -----------------------------------------------------------

    def dump(
        self,
        reason: str,
        offending: FlightEntry | None = None,
        force: bool = True,
    ) -> FlightDump | None:
        """Snapshot the ring into a :class:`FlightDump`.

        With ``force=False`` (the automatic-trigger path) dumps are
        throttled to one per ``auto_dump_interval_ms``; explicit calls
        always dump. Returns ``None`` when throttled.
        """
        if not force:
            now = _clock()
            with self._lock:
                last = self._last_auto_dump_ns
                if (last is not None
                        and (now - last) / 1e6 < self.auto_dump_interval_ms):
                    return None
                self._last_auto_dump_ns = now
        entries = tuple(self.entries())
        dump = self._dumps.add(lambda sequence: FlightDump(
            reason=reason, sequence=sequence + 1, entries=entries,
            offending=offending,
        ))
        self._write_to_disk(dump)
        return dump

    def dumps(self) -> list[FlightDump]:
        return self._dumps.items()

    @property
    def dump_count(self) -> int:
        """Dumps ever taken (kept ones are bounded by ``max_dumps``)."""
        return self._dumps.total

    def _write_to_disk(self, dump: FlightDump) -> None:
        directory = read_str(FLIGHT_DIR_ENV)
        if not directory:
            return
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"flight-{dump.sequence:04d}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump.to_jsonl())
        except OSError as exc:
            # The recorder must never take the instrumented code down with
            # it; a full disk loses the file, not the interaction — and
            # the loss shows up on the obs.errors counter.
            if self.error_counter is not None:
                self.error_counter("obs.flight.write", exc)

    def reset(self) -> None:
        self._entries.clear()
        self._dumps.clear()
        with self._lock:
            self._last_auto_dump_ns = None
