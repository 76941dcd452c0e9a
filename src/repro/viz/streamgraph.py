"""Streamgraph and stacked-area rendering (the SG vis type of Table 1).

Vis Wizard [131] offers streamgraphs for multi-series temporal data: each
series is a band whose thickness is its value, stacked around a wiggle-
minimizing baseline (the ThemeRiver/"inside-out" family; we use the simple
symmetric baseline, which is what most implementations ship).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .charts import PALETTE, ChartConfig
from .scales import LinearScale

__all__ = ["stack_series", "streamgraph"]


def stack_series(
    series: Mapping[str, Sequence[float]],
    symmetric: bool = True,
) -> dict[str, list[tuple[float, float]]]:
    """Stack named series into (lower, upper) band bounds per x-index.

    With ``symmetric=True`` the stack is centred around zero (the
    streamgraph look); otherwise bands stack up from zero (stacked area).
    All series must share one length.
    """
    names = list(series)
    if not names:
        return {}
    length = len(series[names[0]])
    for name in names:
        if len(series[name]) != length:
            raise ValueError("all series must have the same length")
        if any(v < 0 for v in series[name]):
            raise ValueError("streamgraph series must be non-negative")
    bands: dict[str, list[tuple[float, float]]] = {name: [] for name in names}
    for index in range(length):
        total = sum(series[name][index] for name in names)
        cursor = -total / 2.0 if symmetric else 0.0
        for name in names:
            value = series[name][index]
            bands[name].append((cursor, cursor + value))
            cursor += value
    return bands


def streamgraph(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    config: ChartConfig | None = None,
    symmetric: bool = True,
) -> str:
    """Render named series as stacked bands over ``x_values``."""
    config = config or ChartConfig()
    canvas = config.canvas()
    names = list(series)
    if not names or not x_values:
        return canvas.to_string()
    bands = stack_series(series, symmetric=symmetric)
    lows = [low for band in bands.values() for low, _ in band]
    highs = [high for band in bands.values() for _, high in band]
    x = LinearScale(
        (min(x_values), max(x_values)), (config.margin, config.width - config.margin)
    )
    y = LinearScale(
        (min(lows), max(highs)), (config.height - config.margin, config.margin)
    )
    for index, name in enumerate(names):
        band = bands[name]
        upper = [(x(px), y(hi)) for px, (_, hi) in zip(x_values, band)]
        lower = [(x(px), y(lo)) for px, (lo, _) in zip(x_values, band)]
        canvas.polygon(
            upper + list(reversed(lower)),
            fill=PALETTE[index % len(PALETTE)],
            stroke="white",
        )
        mid_index = len(band) // 2
        mid_lo, mid_hi = band[mid_index]
        if mid_hi - mid_lo > 0:
            canvas.text(
                x(x_values[mid_index]), y((mid_lo + mid_hi) / 2) + 3, name,
                size=10, anchor="middle", fill="white",
            )
    return canvas.to_string()
