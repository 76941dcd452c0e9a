"""Spatio-temporal count index — a Nanocubes-lite (Lins et al. [96]).

Survey §4 names Nanocubes as the exemplar data structure "in the context of
spatio-temporal data exploration": heatmaps and time-series of event data
(tweets, check-ins, sensor readings) answered in milliseconds regardless of
event count. The essential structure is a spatial quadtree whose every node
carries a *time index* of the events below it, so a query

    count(region, t0, t1)

decomposes the region into O(log n) maximal covered quadtree nodes, each
answering its time-slice in O(log n) — no per-event work at query time.

This implementation keeps the per-node time index as a sorted timestamp
array (binary-search range counting): exact answers, O(n · depth) build
memory, and the same query asymptotics as the original's summed tables.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np

from ..graph.spatial import Rect

__all__ = ["Nanocube"]

Event = tuple[float, float, float]  # x, y, t


class _QuadNode:
    __slots__ = ("rect", "times", "children", "points")

    def __init__(self, rect: Rect) -> None:
        self.rect = rect
        self.times: list[float] = []  # sorted at build end
        self.children: list["_QuadNode"] | None = None
        self.points: list[Event] | None = []  # only at leaves

    def time_count(self, t0: float, t1: float) -> int:
        """Events below this node with ``t0 <= t < t1``."""
        return bisect_left(self.times, t1) - bisect_left(self.times, t0)


class Nanocube:
    """Exact spatio-temporal range counting over point events."""

    def __init__(
        self,
        events: Sequence[Event] | np.ndarray,
        max_depth: int = 8,
        leaf_capacity: int = 32,
        bounds: Rect | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        events = [(float(x), float(y), float(t)) for x, y, t in events]
        self.size = len(events)
        self.max_depth = max_depth
        self.leaf_capacity = leaf_capacity
        if bounds is None:
            if events:
                xs = [e[0] for e in events]
                ys = [e[1] for e in events]
                bounds = Rect(min(xs), min(ys), max(xs), max(ys))
            else:
                bounds = Rect(0.0, 0.0, 1.0, 1.0)
        self.bounds = bounds
        self.node_count = 1
        self.root = _QuadNode(bounds)
        for event in events:
            self._insert(self.root, event, depth=0)
        self._finalize(self.root)

    # -- build ---------------------------------------------------------------

    def _insert(self, node: _QuadNode, event: Event, depth: int) -> None:
        node.times.append(event[2])
        if node.children is None:
            node.points.append(event)
            if depth < self.max_depth and len(node.points) > self.leaf_capacity:
                self._split(node, depth)
            return
        self._insert(self._child_for(node, event), event, depth + 1)

    def _split(self, node: _QuadNode, depth: int) -> None:
        x0, y0, x1, y1 = node.rect
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        node.children = [
            _QuadNode(Rect(x0, y0, mx, my)),
            _QuadNode(Rect(mx, y0, x1, my)),
            _QuadNode(Rect(x0, my, mx, y1)),
            _QuadNode(Rect(mx, my, x1, y1)),
        ]
        self.node_count += 4
        points = node.points or []
        node.points = None
        for event in points:
            child = self._child_for(node, event)
            child.times.append(event[2])
            child.points.append(event)
        # a split child may itself overflow; recurse
        for child in node.children:
            if depth + 1 < self.max_depth and len(child.points or []) > self.leaf_capacity:
                self._split(child, depth + 1)

    def _child_for(self, node: _QuadNode, event: Event) -> _QuadNode:
        x0, y0, x1, y1 = node.rect
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        index = (1 if event[0] >= mx else 0) + (2 if event[1] >= my else 0)
        return node.children[index]  # type: ignore[index]

    def _finalize(self, node: _QuadNode) -> None:
        node.times.sort()
        if node.children is not None:
            for child in node.children:
                self._finalize(child)

    # -- queries ------------------------------------------------------------

    def count(self, region: Rect, t0: float = float("-inf"), t1: float = float("inf")) -> int:
        """Events with position inside ``region`` and ``t0 <= t < t1``."""
        if t1 < t0:
            raise ValueError("count requires t0 <= t1")
        self.nodes_visited = 0
        return self._count(self.root, region, t0, t1)

    def _count(self, node: _QuadNode, region: Rect, t0: float, t1: float) -> int:
        self.nodes_visited += 1
        if not region.intersects(node.rect) or not node.times:
            return 0
        if _covers(region, node.rect):
            return node.time_count(t0, t1)
        if node.children is None:
            return sum(
                1
                for x, y, t in node.points or []
                if region.contains_point(x, y) and t0 <= t < t1
            )
        return sum(self._count(child, region, t0, t1) for child in node.children)

    def time_histogram(self, region: Rect, bin_edges: Sequence[float]) -> list[int]:
        """Per-bin counts over ``region`` (the Nanocubes time-series view)."""
        if len(bin_edges) < 2:
            raise ValueError("need at least two bin edges")
        return [
            self.count(region, bin_edges[i], bin_edges[i + 1])
            for i in range(len(bin_edges) - 1)
        ]

    def density_grid(
        self, nx: int, ny: int, t0: float = float("-inf"), t1: float = float("inf")
    ) -> np.ndarray:
        """Fixed-resolution count lattice (the Nanocubes heatmap view)."""
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be positive")
        x0, y0, x1, y1 = self.bounds
        width = (x1 - x0) or 1.0
        height = (y1 - y0) or 1.0
        grid = np.zeros((ny, nx), dtype=np.int64)
        for iy in range(ny):
            for ix in range(nx):
                cell = Rect(
                    x0 + ix * width / nx,
                    y0 + iy * height / ny,
                    x0 + (ix + 1) * width / nx,
                    y0 + (iy + 1) * height / ny,
                )
                # half-open cells to avoid double counting boundaries
                grid[iy, ix] = self._count_half_open(cell, t0, t1, ix == nx - 1, iy == ny - 1)
        return grid

    def _count_half_open(
        self, cell: Rect, t0: float, t1: float, last_col: bool, last_row: bool
    ) -> int:
        total = self.count(cell, t0, t1)
        # subtract right/top boundary unless this is the outermost cell
        if not last_col:
            total -= self.count(Rect(cell.x1, cell.y0, cell.x1, cell.y1), t0, t1)
        if not last_row:
            total -= self.count(Rect(cell.x0, cell.y1, cell.x1, cell.y1), t0, t1)
        if not last_col and not last_row:
            total += self.count(Rect(cell.x1, cell.y1, cell.x1, cell.y1), t0, t1)
        return total

    def __len__(self) -> int:
        return self.size


def _covers(outer: Rect, inner: Rect) -> bool:
    return (
        outer.x0 <= inner.x0
        and outer.y0 <= inner.y0
        and outer.x1 >= inner.x1
        and outer.y1 >= inner.y1
    )
