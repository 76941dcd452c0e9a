"""Result caching, least recently used out first.

Survey Section 4: "also caching and prefetching techniques may be
exploited; e.g., [128, 76, 70, 16, 33, 83, 39]". :class:`ResultCache` is
the generic keyed cache the exploration layers put in front of expensive
operations (window queries, facet counts, SPARQL results, the endpoint's
encoded answers); its statistics feed benchmark C9.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from ..obs import OBS

__all__ = ["CacheStats", "ResultCache"]

V = TypeVar("V")

_SENTINEL = object()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    retired: int = 0  # entries dropped on sight for a stale stamp

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


@dataclass
class _Slot:
    value: object
    weight: int
    stamp: object


class ResultCache:
    """Bounded keyed cache; the least recently used entry leaves first.

    Bounded by ``capacity`` entries and, with ``max_bytes``, by the sum
    of the weights callers declare: entries leave in LRU order until
    both hold, and a value heavier than the budget is not kept. A lookup
    under another ``stamp`` (the version of what an entry was computed
    from) than the entry's drops it and misses. Thread-safe: one lock
    around each dict operation; ``get_or_compute`` computes outside it.

    ``name`` labels the cache in the telemetry registry: when global
    tracing is on, hits/misses/evictions are mirrored into the
    ``cache.hits`` / ``cache.misses`` / ``cache.evictions`` counters with
    ``cache=<name>``, alongside the always-on local :class:`CacheStats`.
    """

    def __init__(self, capacity: int, name: str = "result",
                 max_bytes: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, _Slot] \
            = OrderedDict()  # guarded-by: _lock
        self.bytes = 0  # guarded-by: _lock
        self.stats = CacheStats()  # guarded-by: _lock

    def _record(self, outcome: str, count: int = 1) -> None:
        if count and OBS.enabled:
            OBS.metrics.counter(f"cache.{outcome}", cache=self.name).inc(count)

    def get(self, key: Hashable, default: object = None,
            stamp: object = None) -> object:
        with self._lock:
            slot = self._data.get(key)
            if slot is not None and slot.stamp != stamp:
                self._drop_locked(key)
                self.stats.retired += 1
                slot = None
            if slot is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                self._data.move_to_end(key)
        self._record("misses" if slot is None else "hits")
        return default if slot is None else slot.value

    def put(self, key: Hashable, value: object, weight: int = 0,
            stamp: object = None) -> None:
        evicted = 0
        with self._lock:
            self._drop_locked(key)
            if self.max_bytes is None or weight <= self.max_bytes:
                self.bytes += weight
                evicted = self._make_room_locked()
                self._data[key] = _Slot(value, weight, stamp)
        self._record("evictions", evicted)

    def get_or_compute(self, key: Hashable, compute: Callable[[], V],
                       stamp: object = None) -> V:
        """The memoization workhorse: one lookup, one fill on miss."""
        value = self.get(key, _SENTINEL, stamp)
        if value is _SENTINEL:
            value = compute()
            self.put(key, value, stamp=stamp)
        return value  # type: ignore[return-value]

    def _drop_locked(self, key: Hashable) -> None:
        slot = self._data.pop(key, None)
        if slot is not None:
            self.bytes -= slot.weight

    def _make_room_locked(self) -> int:
        """Evict until one more entry fits (``bytes`` already counts it)."""
        evicted = 0
        while self._data and (
            len(self._data) >= self.capacity
            or (self.max_bytes is not None and self.bytes > self.max_bytes)
        ):
            self._drop_locked(next(iter(self._data)))
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.bytes = 0
