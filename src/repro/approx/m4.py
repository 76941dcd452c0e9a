"""M4: pixel-perfect time-series aggregation (VDDA, Jugel et al. [73, 74]).

The survey cites M4/VDDA as the exemplar of *query-based* approximation:
"modern database-oriented systems adopt approximation techniques using
query-based approaches (e.g., query translation, query rewriting)". The
insight: a line chart of width ``w`` pixels can only show, per pixel
column, the first, last, minimum, and maximum values that fall into it.
Shipping exactly those ≤ 4·w tuples renders the *identical* image while
reducing data volume by orders of magnitude.

This module provides the M4 operator, a uniform (every k-th point)
downsampling baseline, and the pixel-error metric used by benchmark C4 to
compare them: rasterize both series to a ``w × h`` column min/max envelope
and count disagreeing pixels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["m4_aggregate", "uniform_downsample", "rasterize_minmax", "pixel_error"]


def m4_aggregate(
    times: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a series to the M4 tuples of ``width`` pixel columns.

    Returns ``(times, values)`` sorted by time, with at most ``4 * width``
    points: per column, the first/last (time extremes) and min/max (value
    extremes) of the points that project into it.
    """
    if width < 1:
        raise ValueError("width must be positive")
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape:
        raise ValueError("times and values must have equal length")
    if len(t) == 0:
        return t, v
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    t0, t1 = float(t[0]), float(t[-1])
    span = (t1 - t0) or 1.0
    columns = np.clip(((t - t0) / span * width).astype(int), 0, width - 1)

    keep = np.zeros(len(t), dtype=bool)
    # Column boundaries: first/last by construction of the sorted order,
    # min/max via per-column argmin/argmax.
    boundaries = np.flatnonzero(np.diff(columns)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(t)]))
    for start, end in zip(starts, ends):
        keep[start] = True  # first
        keep[end - 1] = True  # last
        segment = v[start:end]
        keep[start + int(segment.argmin())] = True
        keep[start + int(segment.argmax())] = True
    return t[keep], v[keep]


def uniform_downsample(
    times: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep ``k`` evenly spaced points — the naive baseline M4 beats."""
    if k < 1:
        raise ValueError("k must be positive")
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if len(t) <= k:
        return t.copy(), v.copy()
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    indices = np.unique(np.linspace(0, len(t) - 1, k).astype(int))
    return t[indices], v[indices]


def rasterize_minmax(
    times: np.ndarray, values: np.ndarray, width: int, height: int,
    t_domain: tuple[float, float] | None = None,
    v_domain: tuple[float, float] | None = None,
) -> np.ndarray:
    """Boolean ``(height, width)`` raster of a line chart's column envelope.

    Each column is filled between the min and max pixel of the *connected
    line* passing through it (segments spanning columns contribute their
    interpolated crossings), which is how an actual polyline renderer fills
    pixels.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    raster = np.zeros((height, width), dtype=bool)
    if len(times) == 0:
        return raster
    order = np.argsort(times, kind="stable")
    t, v = np.asarray(times)[order], np.asarray(values)[order]
    t0, t1 = t_domain if t_domain else (float(t[0]), float(t[-1]))
    v0, v1 = v_domain if v_domain else (float(v.min()), float(v.max()))
    t_span = (t1 - t0) or 1.0
    v_span = (v1 - v0) or 1.0

    def col(time: float) -> int:
        return min(max(int((time - t0) / t_span * width), 0), width - 1)

    def row(value: float) -> int:
        return min(max(int((value - v0) / v_span * (height - 1)), 0), height - 1)

    # Track per-column min/max rows touched by the polyline.
    col_min = np.full(width, height, dtype=int)
    col_max = np.full(width, -1, dtype=int)

    def touch(c: int, r: int) -> None:
        if r < col_min[c]:
            col_min[c] = r
        if r > col_max[c]:
            col_max[c] = r

    touch(col(t[0]), row(v[0]))
    for i in range(1, len(t)):
        c_prev, c_cur = col(t[i - 1]), col(t[i])
        r_cur = row(v[i])
        touch(c_cur, r_cur)
        if c_cur != c_prev:
            # interpolate the segment at each column boundary it crosses
            for c in range(min(c_prev, c_cur), max(c_prev, c_cur) + 1):
                boundary_t = t0 + c * t_span / width
                if t[i] != t[i - 1]:
                    alpha = (boundary_t - t[i - 1]) / (t[i] - t[i - 1])
                    alpha = min(max(alpha, 0.0), 1.0)
                    crossing = v[i - 1] + alpha * (v[i] - v[i - 1])
                    touch(c, row(crossing))
        else:
            touch(c_cur, row(v[i - 1]))

    for c in range(width):
        if col_max[c] >= 0:
            raster[col_min[c] : col_max[c] + 1, c] = True
    return raster


def pixel_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Fraction of pixels where two rasters disagree (0 = identical)."""
    if reference.shape != candidate.shape:
        raise ValueError("rasters must have the same shape")
    if reference.size == 0:
        return 0.0
    return float(np.mean(reference != candidate))
