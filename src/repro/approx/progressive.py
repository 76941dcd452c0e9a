"""Progressive (incremental) approximate aggregation with error bounds.

The survey's synthesis of its two efficiency families (Section 2):
"numerous recent systems integrate incremental and approximate techniques;
approximate answers are computed incrementally over progressively larger
samples of the data [46, 2, 69]" — sampleAction, BlinkDB, VisReduce.

:class:`ProgressiveAggregator` consumes a dataset in chunks (over a
pre-shuffled order, so each prefix is a uniform sample) and after every
chunk exposes the running estimate of count/sum/mean with a CLT confidence
interval. The interval lets a UI show "mean ≈ 503 ± 4 (95%)" seconds before
the exact answer exists — trust-building per Fisher et al. [46].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..obs import OBS, ProgressEmitter

__all__ = [
    "ProgressiveEstimate",
    "ProgressiveAggregator",
    "ProgressiveSketchAggregator",
    "StreamingMoments",
    "z_score",
    "t_score",
]

# two-sided normal quantiles for common confidence levels
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    """Two-sided normal quantile for a supported confidence level.

    The single source of CI math for the approximate serving tier and the
    sketch subsystem — every ``X-Repro-Error-Bound`` header traces back to
    one of these three constants.
    """
    try:
        return _Z[confidence]
    except KeyError:
        raise ValueError(f"confidence must be one of {sorted(_Z)}") from None


def t_score(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile for ``dof`` degrees of freedom: what an
    interval around a mean of few values must use in place of
    :func:`z_score`. Cornish–Fisher expansion in ``1 / dof`` around the
    normal quantile, within 1 % of the tables from three degrees of
    freedom up (and short of them below: 4.2 for 4.3 at two)."""
    z = z_score(confidence)
    if dof < 1:
        return float("inf")
    return (
        z
        + (z**3 + z) / (4 * dof)
        + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * dof**2)
        + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * dof**3)
    )


@dataclass(frozen=True)
class ProgressiveEstimate:
    """One snapshot of the running approximation."""

    seen: int  # sample size so far
    population: int  # full dataset size
    mean: float
    ci_halfwidth: float  # for the mean, at the chosen confidence
    confidence: float

    @property
    def fraction(self) -> float:
        return self.seen / self.population if self.population else 1.0

    @property
    def sum_estimate(self) -> float:
        """Scaled-up sum (Horvitz–Thompson under uniform sampling)."""
        return self.mean * self.population

    @property
    def mean_interval(self) -> tuple[float, float]:
        return (self.mean - self.ci_halfwidth, self.mean + self.ci_halfwidth)

    def __str__(self) -> str:
        pct = int(self.confidence * 100)
        return (
            f"mean ≈ {self.mean:.4g} ± {self.ci_halfwidth:.2g} "
            f"({pct}%, {self.seen}/{self.population} seen)"
        )


class StreamingMoments:
    """Welford mean/variance over a stream, with CLT confidence intervals.

    The accumulator behind :class:`ProgressiveAggregator` and, one per
    group, the serving layer's grouped-moments sketch (which computes its
    own intervals from the sampling frame): feed values one at a time, or
    :meth:`merge` whole accumulators, then ask :meth:`estimate` for the
    running mean with a finite-population-corrected interval against any
    population size.
    """

    __slots__ = ("confidence", "z", "n", "_mean", "_m2")

    def __init__(self, confidence: float = 0.95) -> None:
        if confidence not in _Z:
            raise ValueError(f"confidence must be one of {sorted(_Z)}")
        self.confidence = confidence
        self.z = _Z[confidence]
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (value - self._mean)

    def extend(self, values) -> None:
        for value in values:
            self.add(float(value))

    def merge(self, other: "StreamingMoments") -> None:
        """Absorb another moments accumulator (Chan et al. pairwise
        combine) — the result is exactly the accumulator a single pass
        over both streams would have produced, so sharded and federated
        partials compose losslessly."""
        if not isinstance(other, StreamingMoments):
            raise ValueError(
                f"cannot merge {type(other).__name__} into StreamingMoments"
            )
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            return
        combined = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / combined
        self._mean += delta * other.n / combined
        self.n = combined

    def as_tuple(self) -> tuple[int, float, float]:
        """``(n, mean, m2)`` — the whole state, for wire encoding."""
        return (self.n, self._mean, self._m2)

    @classmethod
    def from_tuple(
        cls, state, confidence: float = 0.95
    ) -> "StreamingMoments":
        moments = cls(confidence)
        n, mean, m2 = state
        moments.n = int(n)
        moments._mean = float(mean)
        moments._m2 = float(m2)
        return moments

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def total(self) -> float:
        """Sum of the observed values (``mean * n``)."""
        return self._mean * self.n

    @property
    def variance(self) -> float:
        """Sample variance (0 below two observations)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    def estimate(self, population: int | None = None) -> ProgressiveEstimate:
        """The running mean ± CI, scaled against ``population``.

        ``population`` defaults to the observations seen (the interval then
        collapses to zero — everything was observed). A larger population
        widens the interval per the usual ``sqrt(variance / n)`` CLT term
        with finite-population correction.
        """
        n = self.n
        total = n if population is None else max(int(population), n)
        halfwidth = (
            self.z * math.sqrt(self.variance / n) if n > 1 else float("inf")
        )
        if total > 1:
            fpc = math.sqrt(max(0.0, (total - n) / (total - 1)))
            halfwidth *= fpc
        if n == 0:
            halfwidth = float("inf")
        return ProgressiveEstimate(
            seen=n,
            population=total,
            mean=self._mean,
            ci_halfwidth=halfwidth,
            confidence=self.confidence,
        )


class ProgressiveAggregator:
    """Chunk-at-a-time mean/sum estimation over a shuffled dataset.

    >>> agg = ProgressiveAggregator([1.0] * 500 + [3.0] * 500, seed=1)
    >>> estimates = list(agg.run(chunk_size=100))
    >>> estimates[-1].mean
    2.0
    """

    def __init__(
        self,
        values: Sequence[float] | np.ndarray,
        confidence: float = 0.95,
        seed: int = 0,
        shuffle: bool = True,
    ) -> None:
        if confidence not in _Z:
            raise ValueError(f"confidence must be one of {sorted(_Z)}")
        self._values = np.asarray(values, dtype=np.float64).copy()
        if shuffle:
            # shuffling once makes every prefix a uniform random sample
            rng = random.Random(seed)
            order = list(range(len(self._values)))
            rng.shuffle(order)
            self._values = self._values[order]
        self.confidence = confidence
        self._moments = StreamingMoments(confidence)

    def __len__(self) -> int:
        return len(self._values)

    def _consume(self, chunk: np.ndarray) -> None:
        self._moments.extend(chunk)

    def _snapshot(self) -> ProgressiveEstimate:
        return self._moments.estimate(len(self._values))

    def run(
        self, chunk_size: int = 1000, emitter: ProgressEmitter | None = None
    ) -> Iterator[ProgressiveEstimate]:
        """Yield an estimate after each chunk until the data is exhausted.

        Each chunk also lands on the progress-event stream (``emitter``,
        defaulting to the global :data:`repro.obs.OBS` emitter) so a UI can
        watch the estimate tighten without consuming this iterator itself.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if emitter is None:
            emitter = OBS.progress
        for start in range(0, len(self._values), chunk_size):
            self._consume(self._values[start : start + chunk_size])
            estimate = self._snapshot()
            if emitter.has_subscribers:
                emitter.emit(
                    "approx.progressive",
                    completed=estimate.seen,
                    total=estimate.population,
                    mean=estimate.mean,
                    ci_halfwidth=estimate.ci_halfwidth,
                    confidence=estimate.confidence,
                )
            yield estimate

    def run_until(
        self, target_halfwidth: float, chunk_size: int = 1000
    ) -> ProgressiveEstimate:
        """Consume chunks until the CI is tight enough (or data runs out).

        This is the interactive contract: "give me the mean to ±ε" costs a
        sample-size, not a dataset-size, amount of work.
        """
        estimate: ProgressiveEstimate | None = None
        for estimate in self.run(chunk_size):
            if estimate.ci_halfwidth <= target_halfwidth:
                return estimate
        if estimate is None:
            raise ValueError("empty dataset")
        return estimate


class ProgressiveSketchAggregator:
    """Per-pass sketch merging: the progressive path for *any* mergeable
    summary (:mod:`repro.approx.sketch`), not just means.

    Each pass builds a fresh sketch over its chunk via ``factory``,
    merges it into the running accumulation, and yields the merged
    estimate — the same combine step the federation coordinator runs, so
    progressive refinement and shard merging stay one code path. The
    factory keeps this module import-independent of the sketch package
    (which imports :func:`z_score` from here).
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self.merged = factory()
        self.passes = 0

    def absorb(self, sketch) -> "object":
        """Merge one pass's sketch; returns the running estimate."""
        self.merged.merge(sketch)
        self.passes += 1
        return self.merged.estimate()

    def run(
        self, chunks, emitter: ProgressEmitter | None = None
    ) -> Iterator[object]:
        """Yield the merged :class:`SketchEstimate` after each chunk,
        mirroring :meth:`ProgressiveAggregator.run`'s event contract."""
        if emitter is None:
            emitter = OBS.progress
        for chunk in chunks:
            sketch = self._factory()
            for value in chunk:
                sketch.add(value)
            estimate = self.absorb(sketch)
            if emitter.has_subscribers:
                emitter.emit(
                    "approx.progressive.sketch",
                    completed=self.passes,
                    total=None,
                    value=estimate.value,
                    error_bound=estimate.error_bound,
                    confidence=estimate.confidence,
                )
            yield estimate
