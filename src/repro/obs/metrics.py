"""Counters, gauges, and fixed-bucket histograms with percentile summaries.

The numeric half of the telemetry layer: cache hit/miss/eviction counters,
buffer-pool page I/O, crack operations, and latency histograms all land in
one process-wide :class:`MetricsRegistry` keyed by ``(name, labels)``.
Everything is stdlib-only and thread-safe; histogram percentiles are
estimated by linear interpolation inside fixed buckets, the classic
Prometheus-style scheme (exact enough for p50/p95/p99 reporting, O(buckets)
memory regardless of observation count).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BoundedLabelSet",
    "DEFAULT_BUCKETS",
    "TIME_MS_BUCKETS",
]

# Default latency-ish buckets (unit-agnostic; callers pick ms or counts).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0,
)

# Millisecond-latency buckets for operator/interaction timings. The
# unit-agnostic defaults above have a factor-of-5 gap around 0.5–2ms, where
# most operator timings land (BENCH_obs.json), making p50/p95 interpolation
# meaningless there; these are dense through that range and include the
# latency-budget boundaries (100 / 300 / 1000 ms) as exact bucket edges.
TIME_MS_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0,
    5.0, 7.5, 10.0, 15.0, 25.0, 50.0, 75.0, 100.0, 150.0, 300.0,
    500.0, 1_000.0, 2_500.0, 10_000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Scalar:
    """One named value under its own lock; ``kind`` names it in snapshots."""

    __slots__ = ("name", "labels", "_lock", "_value")
    kind = ""

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0  # guarded-by: _lock

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        # repro: noqa(RPA001) — lock-free read of a GIL-atomic number
        return self._value

    def snapshot(self) -> dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Counter(_Scalar):
    """Monotonically increasing count."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        super().inc(amount)


class Gauge(_Scalar):
    """A value that can go up and down (pool residency, queue depth)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram with p50/p95/p99 summaries.

    Bucket semantics are upper-bound inclusive (``value <= bound`` lands in
    that bucket); observations above the last bound go to the overflow
    bucket, whose percentile estimate is clamped to the observed maximum.
    """

    __slots__ = (
        "name", "labels", "bounds", "_lock", "_counts", "_overflow",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)  # guarded-by: _lock
        self._overflow = 0  # guarded-by: _lock
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def record(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self.bounds):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` pairs; the overflow bucket is ``inf``."""
        with self._lock:
            pairs = list(zip(self.bounds, self._counts))
            pairs.append((float("inf"), self._overflow))
            return pairs

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) via bucket interpolation."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            observed_min = self._min if self._min is not None else 0.0
            observed_max = self._max if self._max is not None else self.bounds[-1]
            target = q * self._count
            cumulative = 0
            prev_bound = observed_min
            for bound, count in zip(self.bounds, self._counts):
                if count:
                    cumulative += count
                    if cumulative >= target:
                        # interpolate inside the bucket, clamped to the
                        # observed value range
                        upper = min(bound, observed_max)
                        lower = min(max(prev_bound, observed_min), upper)
                        inside = (target - (cumulative - count)) / count
                        return lower + (upper - lower) * inside
                prev_bound = bound
            # overflow bucket: clamp to the observed maximum
            return observed_max

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self._count),
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def snapshot(self) -> dict[str, object]:
        return {"type": "histogram", **self.summary()}


class BoundedLabelSet:
    """Caps the distinct values of one label dimension.

    Metric labels multiply: a counter labelled with exception type names can
    mint a new time series per distinct exception, unboundedly. ``fold``
    passes the first ``cap`` distinct values through verbatim and maps
    everything after that to ``overflow_label``, so the registry stays
    bounded while the common labels keep their identity.
    """

    __slots__ = ("cap", "overflow_label", "_lock", "_seen")

    def __init__(self, cap: int, overflow_label: str = "other") -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        self.overflow_label = overflow_label
        self._lock = threading.Lock()
        self._seen: set[str] = set()  # guarded-by: _lock

    def fold(self, label: object) -> str:
        text = str(label)
        with self._lock:
            if text in self._seen:
                return text
            if len(self._seen) < self.cap:
                self._seen.add(text)
                return text
        return self.overflow_label

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)


class MetricsRegistry:
    """Process-wide get-or-create store of named metrics.

    Metrics are keyed by ``(name, sorted labels)``; asking twice returns
    the same instance, so call sites never hold module-level metric
    globals. Creation takes a lock; increments lock per-metric only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], object] \
            = {}  # guarded-by: _lock

    def _get_or_create(self, kind: type, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        # double-checked locking: the lock-free probe here is
        # re-validated under the lock below
        # repro: noqa(RPA001)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = kind(name, key[1], **kwargs)
                    self._metrics[key] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def __iter__(self) -> Iterator[object]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        # repro: noqa(RPA001) — approximate size; len() is atomic
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Flat ``{"name{label=value}": {...}}`` dump of every metric."""
        out: dict[str, dict] = {}
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            out[key] = metric.snapshot()  # type: ignore[attr-defined]
        return out

    def discard(self, name: str) -> None:
        """Drop every metric called ``name``, whatever its labels."""
        with self._lock:
            for key in [key for key in self._metrics if key[0] == name]:
                del self._metrics[key]

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
