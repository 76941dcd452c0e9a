"""Spatial indexing for viewport-driven graph exploration (graphVizdb [22, 23]).

The survey's flagship counter-example to load-everything systems: graphVizdb
lays the graph out *once*, stores the geometry in a database with a spatial
index, and answers every pan/zoom interaction with a **window query** that
touches only the visible region. This module reproduces that architecture:

* :class:`RTree` — an STR bulk-loaded rectangle tree;
* :class:`ViewportGraphView` — in-memory window queries over a laid-out
  graph (nodes and edges);
* :class:`DiskGraphStore` — the geometry persisted in spatial tiles on
  disk, fetched through an LRU page pool, so resident memory is
  O(visible tiles) rather than O(graph) — the C5 benchmark's subject.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Iterable, NamedTuple

import numpy as np

from ..store.paged import LRUBufferPool
from .model import PropertyGraph

__all__ = ["Rect", "RTree", "ViewportGraphView", "DiskGraphStore"]


class Rect(NamedTuple):
    """An axis-aligned rectangle ``(x0, y0, x1, y1)`` with x0<=x1, y0<=y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def intersects(self, other: "Rect") -> bool:
        return not (
            self.x1 < other.x0
            or other.x1 < self.x0
            or self.y1 < other.y0
            or other.y1 < self.y0
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    @staticmethod
    def around(points: np.ndarray) -> "Rect":
        return Rect(
            float(points[:, 0].min()),
            float(points[:, 1].min()),
            float(points[:, 0].max()),
            float(points[:, 1].max()),
        )

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )


class _RTreeNode:
    __slots__ = ("rect", "children", "entries")

    def __init__(self) -> None:
        self.rect: Rect | None = None
        self.children: list[_RTreeNode] = []
        self.entries: list[tuple[Rect, object]] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTree:
    """Sort-Tile-Recursive bulk-loaded R-tree (read-only after build)."""

    def __init__(self, items: Iterable[tuple[Rect, object]], capacity: int = 16) -> None:
        if capacity < 2:
            raise ValueError("node capacity must be >= 2")
        self.capacity = capacity
        entries = list(items)
        self.size = len(entries)
        self.root = self._bulk_load(entries)

    def _bulk_load(self, entries: list[tuple[Rect, object]]) -> _RTreeNode:
        if not entries:
            node = _RTreeNode()
            node.rect = Rect(0, 0, 0, 0)
            return node
        # STR: sort by x-center, slice into sqrt(P) vertical slabs, sort each
        # slab by y-center, pack runs of `capacity`.
        leaves: list[_RTreeNode] = []
        pages = math.ceil(len(entries) / self.capacity)
        slabs = max(1, math.ceil(math.sqrt(pages)))
        per_slab = math.ceil(len(entries) / slabs)
        entries.sort(key=lambda e: (e[0].x0 + e[0].x1))
        for start in range(0, len(entries), per_slab):
            slab = entries[start : start + per_slab]
            slab.sort(key=lambda e: (e[0].y0 + e[0].y1))
            for offset in range(0, len(slab), self.capacity):
                leaf = _RTreeNode()
                leaf.entries = slab[offset : offset + self.capacity]
                leaf.rect = _bounding(e[0] for e in leaf.entries)
                leaves.append(leaf)
        level = leaves
        while len(level) > 1:
            parents: list[_RTreeNode] = []
            for start in range(0, len(level), self.capacity):
                parent = _RTreeNode()
                parent.children = level[start : start + self.capacity]
                parent.rect = _bounding(c.rect for c in parent.children)
                parents.append(parent)
            level = parents
        return level[0]

    def query(self, window: Rect) -> list[object]:
        """All payloads whose rectangles intersect ``window``."""
        result: list[object] = []
        if self.size == 0:
            return result
        stack = [self.root]
        self.nodes_visited = 0
        while stack:
            node = stack.pop()
            self.nodes_visited += 1
            if node.rect is None or not window.intersects(node.rect):
                continue
            if node.is_leaf:
                result.extend(
                    payload for rect, payload in node.entries if window.intersects(rect)
                )
            else:
                stack.extend(node.children)
        return result

    def __len__(self) -> int:
        return self.size


def _bounding(rects: Iterable[Rect]) -> Rect:
    iterator = iter(rects)
    first = next(iterator)
    result = first
    for rect in iterator:
        result = result.union(rect)
    return result


class ViewportGraphView:
    """In-memory window queries over a laid-out graph.

    Nodes index as points; edges as the bounding box of their endpoints, so
    an edge crossing the viewport is retrieved even when both endpoints lie
    outside — the detail graphVizdb gets right and naive filtering misses.
    """

    def __init__(self, graph: PropertyGraph, positions: np.ndarray) -> None:
        if len(positions) != graph.node_count:
            raise ValueError("positions must cover every node")
        self.graph = graph
        self.positions = positions
        self._node_tree = RTree(
            (
                (Rect(float(x), float(y), float(x), float(y)), index)
                for index, (x, y) in enumerate(positions)
            ),
        )
        self._edge_tree = RTree(
            (
                (
                    Rect(
                        float(min(positions[u][0], positions[v][0])),
                        float(min(positions[u][1], positions[v][1])),
                        float(max(positions[u][0], positions[v][0])),
                        float(max(positions[u][1], positions[v][1])),
                    ),
                    (u, v),
                )
                for u, v, _ in graph.edges()
            ),
        )

    def window_query(self, window: Rect) -> tuple[list[int], list[tuple[int, int]]]:
        """Visible node indexes and candidate edges for one viewport."""
        nodes = self._node_tree.query(window)
        edges = self._edge_tree.query(window)
        return sorted(nodes), sorted(edges)


_NODE_RECORD = struct.Struct("<Iff")  # node index, x, y
_EDGE_RECORD = struct.Struct("<IIffff")  # u, v, bbox x0, y0, x1, y1


class DiskGraphStore:
    """Laid-out graph geometry persisted in spatial tiles on disk.

    ``build`` partitions nodes (by position) into a ``tiles × tiles`` grid;
    each edge record (with its bounding box) is replicated into every tile
    it overlaps, the standard spatial-tiling trade: a little duplicated disk
    space so that a window query never reads outside its own tiles.
    ``window_query`` fetches only intersecting tiles, through an LRU pool.
    """

    def __init__(
        self,
        directory: str,
        bounds: Rect,
        tiles: int,
        node_offsets: list[tuple[int, int]],
        edge_offsets: list[tuple[int, int]],
        cache_tiles: int = 16,
    ) -> None:
        self.directory = directory
        self.bounds = bounds
        self.tiles = tiles
        self._node_offsets = node_offsets  # per tile: (byte offset, byte length)
        self._edge_offsets = edge_offsets
        self.pool = LRUBufferPool(cache_tiles)
        self._node_file = open(os.path.join(directory, "nodes.bin"), "rb")
        self._edge_file = open(os.path.join(directory, "edges.bin"), "rb")

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: PropertyGraph,
        positions: np.ndarray,
        directory: str,
        tiles: int = 8,
        cache_tiles: int = 16,
    ) -> "DiskGraphStore":
        if tiles < 1:
            raise ValueError("tiles must be positive")
        os.makedirs(directory, exist_ok=True)
        if len(positions):
            bounds = Rect.around(positions)
        else:
            bounds = Rect(0, 0, 1, 1)
        width = (bounds.x1 - bounds.x0) or 1.0
        height = (bounds.y1 - bounds.y0) or 1.0

        def tile_of(x: float, y: float) -> int:
            tx = min(int((x - bounds.x0) / width * tiles), tiles - 1)
            ty = min(int((y - bounds.y0) / height * tiles), tiles - 1)
            return ty * tiles + tx

        node_buckets: list[list[bytes]] = [[] for _ in range(tiles * tiles)]
        for index, (x, y) in enumerate(positions):
            node_buckets[tile_of(float(x), float(y))].append(
                _NODE_RECORD.pack(index, float(x), float(y))
            )
        edge_buckets: list[list[bytes]] = [[] for _ in range(tiles * tiles)]
        for u, v, _ in graph.edges():
            rect = Rect(
                float(min(positions[u][0], positions[v][0])),
                float(min(positions[u][1], positions[v][1])),
                float(max(positions[u][0], positions[v][0])),
                float(max(positions[u][1], positions[v][1])),
            )
            record = _EDGE_RECORD.pack(u, v, rect.x0, rect.y0, rect.x1, rect.y1)
            tx0 = max(0, min(int((rect.x0 - bounds.x0) / width * tiles), tiles - 1))
            tx1 = max(0, min(int((rect.x1 - bounds.x0) / width * tiles), tiles - 1))
            ty0 = max(0, min(int((rect.y0 - bounds.y0) / height * tiles), tiles - 1))
            ty1 = max(0, min(int((rect.y1 - bounds.y0) / height * tiles), tiles - 1))
            for ty in range(ty0, ty1 + 1):
                for tx in range(tx0, tx1 + 1):
                    edge_buckets[ty * tiles + tx].append(record)

        node_offsets: list[tuple[int, int]] = []
        with open(os.path.join(directory, "nodes.bin"), "wb") as fh:
            offset = 0
            for bucket in node_buckets:
                payload = b"".join(bucket)
                fh.write(payload)
                node_offsets.append((offset, len(payload)))
                offset += len(payload)
        edge_offsets = []
        with open(os.path.join(directory, "edges.bin"), "wb") as fh:
            offset = 0
            for bucket in edge_buckets:
                payload = b"".join(bucket)
                fh.write(payload)
                edge_offsets.append((offset, len(payload)))
                offset += len(payload)
        return cls(
            directory,
            bounds,
            tiles,
            node_offsets,
            edge_offsets,
            cache_tiles,
        )

    def close(self) -> None:
        self._node_file.close()
        self._edge_file.close()

    def __enter__(self) -> "DiskGraphStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- queries --------------------------------------------------------------

    def _tiles_for(self, window: Rect) -> list[int]:
        width = (self.bounds.x1 - self.bounds.x0) or 1.0
        height = (self.bounds.y1 - self.bounds.y0) or 1.0
        tx0 = max(0, min(int((window.x0 - self.bounds.x0) / width * self.tiles), self.tiles - 1))
        tx1 = max(0, min(int((window.x1 - self.bounds.x0) / width * self.tiles), self.tiles - 1))
        ty0 = max(0, min(int((window.y0 - self.bounds.y0) / height * self.tiles), self.tiles - 1))
        ty1 = max(0, min(int((window.y1 - self.bounds.y0) / height * self.tiles), self.tiles - 1))
        return [
            ty * self.tiles + tx
            for ty in range(ty0, ty1 + 1)
            for tx in range(tx0, tx1 + 1)
        ]

    def _read_tile(self, kind: str, tile: int) -> bytes:
        key = (kind, tile)
        page = self.pool.get(key)
        if page is None:
            offsets = self._node_offsets if kind == "nodes" else self._edge_offsets
            fh = self._node_file if kind == "nodes" else self._edge_file
            offset, length = offsets[tile]
            fh.seek(offset)
            page = fh.read(length)
            self.pool.put(key, page)
        return page

    def window_query(self, window: Rect) -> tuple[list[tuple[int, float, float]], list[tuple[int, int]]]:
        """Nodes (index, x, y) inside and edges overlapping ``window``.

        Both node and edge lookups touch only the tiles the window covers;
        edges are deduplicated (they are replicated across their tiles) and
        filtered exactly against their stored bounding boxes.
        """
        visible_nodes: list[tuple[int, float, float]] = []
        seen_edges: set[tuple[int, int]] = set()
        for tile in self._tiles_for(window):
            payload = self._read_tile("nodes", tile)
            for offset in range(0, len(payload), _NODE_RECORD.size):
                index, x, y = _NODE_RECORD.unpack_from(payload, offset)
                if window.contains_point(x, y):
                    visible_nodes.append((index, x, y))
            edge_payload = self._read_tile("edges", tile)
            for offset in range(0, len(edge_payload), _EDGE_RECORD.size):
                u, v, x0, y0, x1, y1 = _EDGE_RECORD.unpack_from(edge_payload, offset)
                if (u, v) not in seen_edges and window.intersects(Rect(x0, y0, x1, y1)):
                    seen_edges.add((u, v))
        return visible_nodes, sorted(seen_edges)

    @property
    def resident_bytes(self) -> int:
        return self.pool.resident_bytes

    @property
    def disk_bytes(self) -> int:
        return os.path.getsize(os.path.join(self.directory, "nodes.bin")) + os.path.getsize(
            os.path.join(self.directory, "edges.bin")
        )
