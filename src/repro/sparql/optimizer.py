"""Cost-based join ordering for basic graph patterns.

Section 2 of the survey demands *efficient* evaluation over large datasets
during exploration. For BGPs the dominant cost factor is the order in which
triple patterns are joined: starting from the most selective pattern and
always picking a pattern connected to the variables already bound keeps
intermediate results small (the classic greedy heuristic used by practical
RDF engines).

:class:`CardinalityEstimator` is the planner's costing oracle. When the
store publishes a :class:`~repro.store.base.StatisticsSnapshot` (triple
count, distinct S/P/O, per-predicate cardinalities) every estimate is
answered from that cached summary — planning touches no index and issues
no store calls. Stores without statistics fall back to live
``store.count`` probes, the pre-statistics behaviour.
"""

from __future__ import annotations

from typing import Iterable

from ..rdf.terms import Variable
from ..store.base import StatisticsSnapshot, StoreStatistics, TripleSource
from .nodes import TriplePatternNode

__all__ = [
    "CardinalityEstimator",
    "CorrectionTable",
    "estimate_cardinality",
    "order_patterns",
]


def _to_store_pattern(pattern: TriplePatternNode) -> tuple:
    """Replace variables with wildcards for a store-side count."""
    return tuple(None if isinstance(t, Variable) else t for t in (
        pattern.subject, pattern.predicate, pattern.object
    ))


def estimate_cardinality(store: TripleSource, pattern: TriplePatternNode) -> int:
    """Estimated number of matches for ``pattern`` in ``store`` (live counts).

    Exact for 0 or 3 bound positions — a fully bound pattern matches the
    one triple it names or nothing at all, so the estimate is ``store.count``
    (0 or 1), never a blanket 1.
    """
    s, p, o = _to_store_pattern(pattern)
    bound = sum(term is not None for term in (s, p, o))
    if bound == 0:
        return len(store)
    return store.count((s, p, o))


class CorrectionTable:
    """Learned multipliers for the snapshot's *uniformity* estimates.

    The statistics snapshot answers partially-bound patterns with
    uniformity assumptions (``predicate_total / distinct_objects`` and
    friends), which skewed data breaks by orders of magnitude. The
    workload analyzer (:mod:`repro.obs.workload`) measures that drift from
    the query log's leading-scan observations and condenses it into
    factors keyed by ``(predicate, mask)`` — the predicate's N-Triples
    form (or ``"*"`` for variable predicates) and the pattern's
    bound-position signature (``"vbb"`` = variable subject, bound
    predicate, bound object). The estimator multiplies its uniformity
    guesses by the matching factor; exact answers (0 or 3 bound
    positions, predicate-only) are never corrected — they are not
    estimates.

    Factors are clamped to ``[0.01, 10000]``: a correction should bend a
    bad guess toward observed reality, not replace estimation outright.
    """

    __slots__ = ("_factors",)

    MIN_FACTOR = 0.01
    MAX_FACTOR = 10_000.0
    ANY_PREDICATE = "*"

    def __init__(
        self, factors: dict[tuple[str, str], float] | None = None
    ) -> None:
        self._factors: dict[tuple[str, str], float] = {}
        for key, factor in (factors or {}).items():
            self.set(key[0], key[1], factor)

    @classmethod
    def from_factors(cls, mapping: dict[str, float]) -> "CorrectionTable":
        """Build from the JSON form: ``{"<predicate>|<mask>": factor}`` —
        the shape ``repro.obs.workload`` emits."""
        table = cls()
        for key, factor in mapping.items():
            predicate, _, mask = key.rpartition("|")
            table.set(predicate or cls.ANY_PREDICATE, mask, factor)
        return table

    def set(self, predicate: str | None, mask: str, factor: float) -> None:
        clamped = min(self.MAX_FACTOR, max(self.MIN_FACTOR, float(factor)))
        self._factors[(predicate or self.ANY_PREDICATE, mask)] = clamped

    def factor(self, predicate: str | None, mask: str) -> float:
        """Multiplier for an estimate of ``pattern`` (1.0 = uncorrected).

        A predicate-specific entry wins over the ``"*"`` wildcard.
        """
        specific = self._factors.get((predicate or self.ANY_PREDICATE, mask))
        if specific is not None:
            return specific
        if predicate is not None:
            return self._factors.get((self.ANY_PREDICATE, mask), 1.0)
        return 1.0

    def to_json(self) -> dict[str, float]:
        return {
            f"{predicate}|{mask}": factor
            for (predicate, mask), factor in sorted(self._factors.items())
        }

    def __len__(self) -> int:
        return len(self._factors)

    def __bool__(self) -> bool:
        return bool(self._factors)


def _pattern_mask_of(s: object, p: object, o: object) -> str:
    return "".join("v" if term is None else "b" for term in (s, p, o))


class CardinalityEstimator:
    """Plan-time cardinality estimates for triple patterns.

    Built from a :class:`StatisticsSnapshot` when available (zero store
    access at plan time) or from a live store handle otherwise. Use
    :meth:`for_store` to pick automatically. An optional
    :class:`CorrectionTable` rescales the snapshot's uniformity-based
    guesses with factors learned from observed workload drift.
    """

    __slots__ = ("snapshot", "store", "corrections", "snapshot_estimates",
                 "live_estimates")

    def __init__(
        self,
        snapshot: StatisticsSnapshot | None = None,
        store: TripleSource | None = None,
        corrections: CorrectionTable | None = None,
    ) -> None:
        if snapshot is None and store is None:
            raise ValueError("need a statistics snapshot or a store")
        self.snapshot = snapshot
        self.store = store
        self.corrections = corrections
        # Cache-effectiveness counters: estimates answered from the cached
        # statistics snapshot vs. live store.count probes.
        self.snapshot_estimates = 0
        self.live_estimates = 0

    @classmethod
    def for_store(
        cls,
        store: TripleSource,
        corrections: CorrectionTable | None = None,
    ) -> "CardinalityEstimator":
        if isinstance(store, StoreStatistics):
            return cls(snapshot=store.statistics(), corrections=corrections)
        return cls(store=store, corrections=corrections)

    @property
    def uses_statistics(self) -> bool:
        return self.snapshot is not None

    def total_triples(self) -> float:
        if self.snapshot is not None:
            return float(self.snapshot.triple_count)
        return float(len(self.store))

    @property
    def snapshot_hit_rate(self) -> float:
        """Fraction of estimates served from the statistics snapshot."""
        total = self.snapshot_estimates + self.live_estimates
        return self.snapshot_estimates / total if total else 0.0

    def pattern_cardinality(self, pattern: TriplePatternNode) -> float:
        """Estimated matches for one triple pattern."""
        if self.snapshot is None:
            self.live_estimates += 1
            return float(estimate_cardinality(self.store, pattern))
        self.snapshot_estimates += 1
        s, p, o = _to_store_pattern(pattern)
        stats = self.snapshot
        n = float(stats.triple_count)
        if s is None and p is None and o is None:
            return n
        if s is not None and p is not None and o is not None:
            return 1.0 if n else 0.0
        if p is not None:
            predicate_total = float(stats.predicate_count(p))
            if predicate_total == 0.0:
                return 0.0  # exact: the per-predicate histogram is complete
            if s is None and o is None:
                return predicate_total  # exact too: the histogram value
            # Uniformity guesses — the branches corrections apply to.
            if s is not None:
                estimate = max(
                    1.0, predicate_total / max(stats.distinct_subjects, 1)
                )
            else:
                # Objects under *this* predicate; the global count only
                # when the snapshot does not carry the per-predicate one.
                distinct = (
                    stats.predicate_distinct_object_count(p)
                    or stats.distinct_objects
                )
                estimate = max(1.0, predicate_total / max(distinct, 1))
            return self._corrected(estimate, p.n3(), s, p, o)
        if s is not None and o is not None:
            denominator = max(stats.distinct_subjects * stats.distinct_objects, 1)
            return self._corrected(max(1.0, n / denominator), None, s, p, o)
        if s is not None:
            return self._corrected(stats.avg_subject_degree, None, s, p, o)
        return self._corrected(stats.avg_object_degree, None, s, p, o)

    def _corrected(
        self, estimate: float, predicate: str | None,
        s: object, p: object, o: object,
    ) -> float:
        if self.corrections is None:
            return estimate
        factor = self.corrections.factor(predicate, _pattern_mask_of(s, p, o))
        if factor == 1.0:
            return estimate
        return max(1.0, estimate * factor)

    def order(self, patterns: Iterable[TriplePatternNode]) -> list[TriplePatternNode]:
        """Greedy selectivity ordering.

        Pick the cheapest pattern first; thereafter prefer patterns that
        share a variable with the set already chosen (so every join is an
        index lookup, not a cartesian product), breaking ties by estimated
        cardinality, then by a stable textual key.
        """
        remaining = list(patterns)
        if len(remaining) <= 1:
            return remaining
        costs = {id(p): self.pattern_cardinality(p) for p in remaining}
        ordered: list[TriplePatternNode] = []
        bound_vars: set[Variable] = set()

        while remaining:
            connected = [p for p in remaining if ordered and (p.variables() & bound_vars)]
            candidates = connected or remaining
            best = min(candidates, key=lambda p: (costs[id(p)], _pattern_key(p)))
            ordered.append(best)
            remaining.remove(best)
            bound_vars |= best.variables()
        return ordered


def order_patterns(
    store: TripleSource, patterns: Iterable[TriplePatternNode]
) -> list[TriplePatternNode]:
    """Greedy selectivity ordering against a store (statistics preferred)."""
    return CardinalityEstimator.for_store(store).order(patterns)


def _pattern_key(pattern: TriplePatternNode) -> str:
    """Deterministic tie-break so plans are stable across runs."""
    return f"{pattern.subject}|{pattern.predicate}|{pattern.object}"
