"""Edge bundling: trading exactness of edge paths for legibility.

Survey Section 4: "other approaches adopt edge bundling techniques which
aggregate graph edges to bundles [48, 44, 107, 90, 34, 63]". Two methods:

* :func:`hierarchical_edge_bundling` — Holten's HEB [63]: an edge is routed
  along the cluster-hierarchy path between its endpoints, pulled toward the
  straight line by ``1 - beta``;
* :func:`force_directed_edge_bundling` — FDEB [48]-style: edge control
  points attract compatible edges' control points over a few cycles.

Both return polylines; :func:`ink_ratio` and :func:`mean_edge_dispersion`
quantify the clutter reduction benchmark C7 reports.
"""

from __future__ import annotations

import numpy as np

from .abstraction import AbstractionPyramid
from .model import PropertyGraph

__all__ = [
    "hierarchical_edge_bundling",
    "force_directed_edge_bundling",
    "polyline_length",
    "ink_ratio",
    "mean_edge_dispersion",
]

Polyline = np.ndarray  # (k, 2) control points including endpoints


def polyline_length(polyline: Polyline) -> float:
    if len(polyline) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(polyline, axis=0), axis=1).sum())


def hierarchical_edge_bundling(
    graph: PropertyGraph,
    positions: np.ndarray,
    pyramid: AbstractionPyramid,
    beta: float = 0.8,
    level: int = 1,
) -> list[Polyline]:
    """Route each edge via its endpoints' cluster centroids (HEB [63]).

    The control path of edge (u, v) is
    ``u → centroid(cluster(u)) → centroid(cluster(v)) → v`` (centroids
    merge when both endpoints share a cluster), then each control point is
    interpolated toward the straight chord by ``1 - beta``; ``beta = 0``
    yields straight edges, ``beta = 1`` full bundling.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if level >= pyramid.height:
        raise ValueError(f"pyramid has no level {level}")
    membership = pyramid.membership[level]
    node_to_cluster: dict[int, int] = {}
    for cluster, nodes in membership.items():
        for node in nodes:
            node_to_cluster[node] = cluster
    centroids = {
        cluster: positions[nodes].mean(axis=0) for cluster, nodes in membership.items()
    }
    bundles: list[Polyline] = []
    for u, v, _ in graph.edges():
        cu, cv = node_to_cluster[u], node_to_cluster[v]
        if cu == cv:
            control = [positions[u], centroids[cu], positions[v]]
        else:
            control = [positions[u], centroids[cu], centroids[cv], positions[v]]
        control_arr = np.asarray(control, dtype=float)
        # straighten by (1 - beta): blend interior points toward the chord
        k = len(control_arr)
        chord = np.linspace(control_arr[0], control_arr[-1], k)
        blended = beta * control_arr + (1.0 - beta) * chord
        blended[0], blended[-1] = control_arr[0], control_arr[-1]
        bundles.append(blended)
    return bundles


def _subdivide(polyline: Polyline, points_per_edge: int) -> Polyline:
    t_old = np.linspace(0, 1, len(polyline))
    t_new = np.linspace(0, 1, points_per_edge)
    x = np.interp(t_new, t_old, polyline[:, 0])
    y = np.interp(t_new, t_old, polyline[:, 1])
    return np.stack([x, y], axis=1)


def _compatibility(p: np.ndarray, q: np.ndarray) -> float:
    """Angle/scale/position compatibility of two edges (FDEB §3.2, simplified)."""
    vp, vq = p[-1] - p[0], q[-1] - q[0]
    lp, lq = np.linalg.norm(vp), np.linalg.norm(vq)
    if lp < 1e-9 or lq < 1e-9:
        return 0.0
    angle = abs(float(np.dot(vp, vq)) / (lp * lq))
    scale = 2.0 / (max(lp, lq) / min(lp, lq) + min(lp, lq) / max(lp, lq))
    mid_dist = float(np.linalg.norm((p[0] + p[-1]) / 2 - (q[0] + q[-1]) / 2))
    avg_len = (lp + lq) / 2
    position = avg_len / (avg_len + mid_dist)
    return angle * scale * position


def force_directed_edge_bundling(
    graph: PropertyGraph,
    positions: np.ndarray,
    cycles: int = 4,
    points_per_edge: int = 9,
    step: float = 4.0,
    compatibility_threshold: float = 0.4,
) -> list[Polyline]:
    """FDEB-style bundling: compatible edges attract each other's control
    points for a few cycles (simplified single-resolution variant)."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    if not edges:
        return []
    lines = [
        _subdivide(np.asarray([positions[u], positions[v]], float), points_per_edge)
        for u, v in edges
    ]
    n = len(lines)
    # precompute compatible pairs once (O(E^2), fine at view scale)
    compatible: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _compatibility(lines[i], lines[j]) >= compatibility_threshold:
                compatible[i].append(j)
                compatible[j].append(i)

    current_step = step
    for _ in range(cycles):
        for _ in range(10):
            updated = [line.copy() for line in lines]
            for i, line in enumerate(lines):
                if not compatible[i]:
                    continue
                force = np.zeros_like(line)
                # spring force between consecutive control points
                force[1:-1] += (line[:-2] - line[1:-1]) + (line[2:] - line[1:-1])
                for j in compatible[i]:
                    other = lines[j]
                    delta = other - line
                    distance = np.maximum(np.linalg.norm(delta, axis=1), 1e-6)
                    force += delta / distance[:, None]
                updated[i][1:-1] += current_step * 0.1 * force[1:-1]
            lines = updated
        current_step /= 2.0
    return lines


def _pixels_of(polylines: list[Polyline], pixel: float) -> set[tuple[int, int]]:
    """Rasterize polylines into a set of touched pixel cells."""
    pixels: set[tuple[int, int]] = set()
    for line in polylines:
        for a, b in zip(line[:-1], line[1:]):
            length = float(np.linalg.norm(b - a))
            steps = max(2, int(length / pixel) + 1)
            for t in np.linspace(0.0, 1.0, steps):
                point = a + t * (b - a)
                pixels.add((int(point[0] // pixel), int(point[1] // pixel)))
    return pixels


def ink_ratio(
    bundled: list[Polyline],
    graph: PropertyGraph,
    positions: np.ndarray,
    pixel: float = 4.0,
) -> float:
    """Drawn ink of the bundled edges relative to straight edges.

    "Ink" is the number of distinct pixels the polylines touch: bundling
    lengthens individual paths but makes them share corridors, so its pixel
    union shrinks — the clutter-reduction effect C7 quantifies.
    """
    straight = [
        np.asarray([positions[u], positions[v]], dtype=float)
        for u, v, _ in graph.edges()
    ]
    base = len(_pixels_of(straight, pixel))
    if base == 0:
        return 1.0
    return len(_pixels_of(bundled, pixel)) / base


def mean_edge_dispersion(bundled: list[Polyline]) -> float:
    """Mean distance of edge midpoints from their bundle's centroid —
    lower after bundling means edges travel together."""
    if not bundled:
        return 0.0
    midpoints = np.asarray([line[len(line) // 2] for line in bundled])
    centroid = midpoints.mean(axis=0)
    return float(np.linalg.norm(midpoints - centroid, axis=1).mean())
