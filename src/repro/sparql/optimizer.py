"""Cost-based join ordering for basic graph patterns.

Section 2 of the survey demands *efficient* evaluation over large datasets
during exploration. For BGPs the dominant cost factor is the order in which
triple patterns are joined: starting from the most selective pattern and
always picking a pattern connected to the variables already bound keeps
intermediate results small (the classic greedy heuristic used by practical
RDF engines).

:class:`CardinalityEstimator` is the planner's costing oracle, and where
the store can count without scanning it is not an estimator at all: a
store on sorted runs (``count_ids``: memory, cracking) answers a pattern's
exact cardinality with two binary searches, so that is what a pattern
costs — nothing is precomputed, and a write is visible to the next plan.
A source that cannot count locally (paged, ``Graph``, federation, remote
endpoints) is planned from the :class:`~repro.store.base.StatisticsSnapshot`
it publishes, with uniformity assumptions for partially bound patterns and
no store call at plan time; a source with neither is asked ``count()``.
"""

from __future__ import annotations

from typing import Iterable

from ..rdf.terms import Variable
from ..store.base import StatisticsSnapshot, StoreStatistics, TripleSource
from .nodes import TriplePatternNode

__all__ = [
    "CardinalityEstimator",
    "estimate_cardinality",
]


def _to_store_pattern(pattern: TriplePatternNode) -> tuple:
    """Replace variables with wildcards for a store-side count."""
    return tuple(None if isinstance(t, Variable) else t for t in (
        pattern.subject, pattern.predicate, pattern.object
    ))


def estimate_cardinality(store: TripleSource, pattern: TriplePatternNode) -> int:
    """Number of matches for ``pattern`` in ``store``, as the store counts
    them: ``len(store)`` for the all-variable pattern, else ``store.count``
    — so a fully bound pattern is 0 or 1, never a blanket 1.
    """
    s, p, o = _to_store_pattern(pattern)
    bound = sum(term is not None for term in (s, p, o))
    if bound == 0:
        return len(store)
    return store.count((s, p, o))


class CardinalityEstimator:
    """Plan-time cardinalities of triple patterns.

    Over a ``store`` every pattern costs what ``store.count`` says, which
    is exact; over a ``snapshot`` it costs what the snapshot's histogram
    and uniformity assumptions say, with no store access at all.
    :meth:`for_store` chooses from what the store offers.
    """

    __slots__ = ("snapshot", "store")

    def __init__(
        self,
        snapshot: StatisticsSnapshot | None = None,
        store: TripleSource | None = None,
    ) -> None:
        if snapshot is None and store is None:
            raise ValueError("need a statistics snapshot or a store")
        self.snapshot = snapshot
        self.store = store

    @classmethod
    def for_store(cls, store: TripleSource) -> "CardinalityEstimator":
        """Counts when ``store`` counts by binary search (it has
        ``count_ids``), else the snapshot it publishes, else its
        ``count()`` — whatever that costs."""
        if not hasattr(store, "count_ids") and isinstance(store, StoreStatistics):
            return cls(snapshot=store.statistics())
        return cls(store=store)

    def total_triples(self) -> float:
        if self.snapshot is not None:
            return float(self.snapshot.triple_count)
        return float(len(self.store))

    def pattern_cardinality(self, pattern: TriplePatternNode) -> float:
        """Matches of one triple pattern: counted, or estimated from the
        snapshot."""
        if self.snapshot is None:
            return float(estimate_cardinality(self.store, pattern))
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
            if s is not None:
                return max(1.0, predicate_total / max(stats.distinct_subjects, 1))
            # Objects under *this* predicate; the global count only when
            # the snapshot does not carry the per-predicate one.
            distinct = (
                stats.predicate_distinct_object_count(p) or stats.distinct_objects
            )
            return max(1.0, predicate_total / max(distinct, 1))
        if s is not None and o is not None:
            denominator = max(stats.distinct_subjects * stats.distinct_objects, 1)
            return max(1.0, n / denominator)
        if s is not None:
            return stats.avg_subject_degree
        return stats.avg_object_degree

    def order(
        self, patterns: Iterable[TriplePatternNode]
    ) -> list[tuple[TriplePatternNode, float]]:
        """Greedy selectivity ordering, each pattern with the cardinality
        it was ordered by — priced once, so the plan reuses the price.

        Pick the cheapest pattern first; thereafter prefer patterns that
        share a variable with the set already chosen (so every join is an
        index lookup, not a cartesian product), breaking ties by estimated
        cardinality, then by a stable textual key.
        """
        remaining = [(p, self.pattern_cardinality(p)) for p in patterns]
        ordered: list[tuple[TriplePatternNode, float]] = []
        bound_vars: set[Variable] = set()

        while remaining:
            connected = [
                priced for priced in remaining
                if ordered and (priced[0].variables() & bound_vars)
            ]
            best = min(
                connected or remaining,
                key=lambda priced: (priced[1], _pattern_key(priced[0])),
            )
            ordered.append(best)
            remaining.remove(best)
            bound_vars |= best[0].variables()
        return ordered


def _pattern_key(pattern: TriplePatternNode) -> str:
    """Deterministic tie-break so plans are stable across runs."""
    return f"{pattern.subject}|{pattern.predicate}|{pattern.object}"
