"""Adaptive indexing (database cracking) for exploration workloads.

Section 2 of the survey notes that the dynamic setting "prevents a
preprocessing phase (e.g., traditional indexing)" and points to adaptive
indexing [67] as used for interactive exploration of big data series [144]:
instead of sorting a column up front, the store *cracks* it incrementally —
every range query partitions exactly the pieces it touches, so the column
converges toward sorted order along the user's exploration path and each
query pays only for the data it reads.

:class:`CrackedColumn` implements classic two-sided cracking over a numeric
column. Two reference strategies are provided for the C8 benchmark:
:class:`FullSortColumn` (pay everything up front) and :class:`ScanColumn`
(pay a full scan on every query).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Sequence

import numpy as np

from ..obs import OBS
from .memory import MemoryStore

__all__ = ["CrackedColumn", "CrackingTripleStore", "FullSortColumn", "ScanColumn"]


class CrackedColumn:
    """A numeric column indexed adaptively by the queries themselves.

    The column keeps a permuted copy of the input values plus a sorted list
    of *crack points* ``(pivot, position)`` with the invariant::

        values[:position] <  pivot  <=  values[position:]        (*)

    restricted to the piece each pivot was cracked in; globally the pieces
    between consecutive crack positions are value-disjoint and ordered.

    ``range_query(lo, hi)`` cracks on both bounds and then answers from the
    contiguous qualifying slice. ``work_counter`` accumulates the number of
    elements partitioned, the cost driver compared by the C8 bench.
    """

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.asarray(values, dtype=np.float64).copy()
        # Crack index: parallel sorted lists of pivots and their positions.
        self._pivots: list[float] = []
        self._positions: list[int] = []
        self.work_counter = 0
        self.query_counter = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The (progressively more sorted) physical column."""
        return self._values

    @property
    def piece_count(self) -> int:
        """Number of value-disjoint pieces the column is cracked into."""
        return len(self._pivots) + 1

    def _piece_bounds(self, pivot: float) -> tuple[int, int]:
        """The [start, end) physical range of the piece containing ``pivot``."""
        index = bisect_right(self._pivots, pivot)
        start = self._positions[index - 1] if index > 0 else 0
        end = self._positions[index] if index < len(self._positions) else len(self._values)
        return start, end

    def _crack(self, pivot: float) -> int:
        """Partition so that (*) holds for ``pivot``; returns its position."""
        existing = bisect_left(self._pivots, pivot)
        if existing < len(self._pivots) and self._pivots[existing] == pivot:
            return self._positions[existing]
        start, end = self._piece_bounds(pivot)
        piece = self._values[start:end]
        mask = piece < pivot
        split = start + int(mask.sum())
        if 0 < len(piece):
            self._values[start:end] = np.concatenate((piece[mask], piece[~mask]))
            self.work_counter += len(piece)
            if OBS.enabled:
                OBS.metrics.counter("store.crack.operations").inc()
                OBS.metrics.histogram(
                    "store.crack.piece_elements",
                    buckets=(8, 64, 512, 4_096, 32_768, 262_144, 2_097_152),
                ).record(len(piece))
        insort(self._pivots, pivot)
        self._positions.insert(bisect_left(self._pivots, pivot), split)
        return split

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        """All values ``v`` with ``lo <= v < hi`` (a contiguous slice view)."""
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        if not OBS.enabled:
            start = self._crack(lo)
            end = self._crack(hi)
            return self._values[start:end]
        with OBS.tracer.span("store.crack.range_query", lo=lo, hi=hi) as span:
            work_before = self.work_counter
            start = self._crack(lo)
            end = self._crack(hi)
            span.set_attribute("partitioned", self.work_counter - work_before)
            span.set_attribute("pieces", self.piece_count)
        return self._values[start:end]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))

    def range_sum(self, lo: float, hi: float) -> float:
        return float(self.range_query(lo, hi).sum())

    def check_invariants(self) -> None:
        """Verify every crack point's partition property (for tests)."""
        for pivot, position in zip(self._pivots, self._positions):
            left = self._values[:position]
            right = self._values[position:]
            if len(left) and left.max() >= pivot:
                raise AssertionError(f"values left of pivot {pivot} not all < pivot")
            if len(right) and right.min() < pivot:
                raise AssertionError(f"values right of pivot {pivot} not all >= pivot")
        if self._positions != sorted(self._positions):
            raise AssertionError("crack positions not monotone")


class CrackingTripleStore(MemoryStore):
    """Adaptive indexing at store granularity, on :class:`MemoryStore`'s runs.

    The cracking idea applied to whole access paths (survey §2: the dynamic
    setting "prevents a preprocessing phase"): the sorted-run core builds
    the POS and OSP permutations *lazily*, each the first time a query
    actually touches that path, and :attr:`sorts_paid` counts the full
    sorts a session has cost so far — a workload that only ever looks up
    subjects never pays for the other two. SPO is sorted by the first read
    of any kind because it is also what ``add`` deduplicates against; later
    writes are merged into the orders already built, not re-sorted.

    This class adds nothing to :class:`MemoryStore`; it names the
    adaptive-indexing reading of the same code for the C8 discussion and
    keeps the store a distinct entry in the cross-store parity suites.
    """


class FullSortColumn:
    """Reference strategy: sort everything before the first query."""

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.sort(np.asarray(values, dtype=np.float64))
        # Sorting is ~n log2 n element moves; charged as up-front work.
        n = len(self._values)
        self.work_counter = int(n * max(1.0, np.log2(max(n, 2))))
        self.query_counter = 0

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        start = int(np.searchsorted(self._values, lo, side="left"))
        end = int(np.searchsorted(self._values, hi, side="left"))
        return self._values[start:end]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))


class ScanColumn:
    """Reference strategy: no index at all; every query scans the column."""

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.asarray(values, dtype=np.float64).copy()
        self.work_counter = 0
        self.query_counter = 0

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        self.work_counter += len(self._values)
        return self._values[(self._values >= lo) & (self._values < hi)]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))
