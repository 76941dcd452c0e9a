"""Tile prefetching for pan/zoom exploration (ForeCache [16] style).

Battle et al.'s ForeCache predicts the user's next tile requests from
recent movement and fetches them ahead of time, hiding latency during
panning. :class:`TilePrefetcher` implements the two classic signals:

* **momentum** — the user keeps panning in the same direction, so fetch
  the tiles one step further along the recent displacement vector;
* **neighborhood** — regardless of direction, the immediate ring around
  the current viewport is likely next (covers direction changes & zooms).

The prefetcher wraps a :class:`~repro.cache.result_cache.ResultCache` and
a loader; benchmark C9 replays session traces through it and compares
hit rates/latency against no-cache and cache-only configurations.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..obs import OBS, record_error
from .result_cache import ResultCache

__all__ = ["TilePrefetcher"]

Tile = tuple[int, int]


class TilePrefetcher:
    """Predictive tile fetching over a bounded cache.

    Speculative loads are best-effort: a loader failure during prefetch
    must never break the demand request that triggered it, so it is caught
    and accounted in the ``obs.errors`` telemetry counter (labelled with
    the exception type) instead of propagating — or being silently
    swallowed. Demand loads still raise to the caller.
    """

    def __init__(
        self,
        loader: Callable[[Tile], object],
        cache_capacity: int = 64,
        momentum_depth: int = 2,
        neighborhood: bool = True,
    ) -> None:
        if momentum_depth < 0:
            raise ValueError("momentum_depth must be >= 0")
        self.loader = loader
        self.cache = ResultCache(cache_capacity, name="tile.prefetch")
        self.momentum_depth = momentum_depth
        self.neighborhood = neighborhood
        self._previous_request: set[Tile] | None = None
        self._direction: tuple[int, int] = (0, 0)
        self.loads = 0  # actual loader invocations
        self.prefetch_loads = 0  # loader invocations done speculatively
        self.prefetch_errors = 0  # speculative loads that raised

    # -- serving ------------------------------------------------------------

    def _fetch(self, tile: Tile, speculative: bool = False) -> object:
        def load() -> object:
            self.loads += 1
            if speculative:
                self.prefetch_loads += 1
            return self.loader(tile)

        return self.cache.get_or_compute(tile, load)

    def request(self, tiles: Iterable[Tile]) -> list[object]:
        """Serve one viewport's tile set, then prefetch for the next one."""
        tiles = list(tiles)
        results = [self._fetch(tile) for tile in tiles]
        self._update_direction(set(tiles))
        self._prefetch(set(tiles))
        return results

    # -- prediction ------------------------------------------------------------

    def _update_direction(self, current: set[Tile]) -> None:
        if self._previous_request:
            cx = _centroid(current)
            px = _centroid(self._previous_request)
            self._direction = (_sign(cx[0] - px[0]), _sign(cx[1] - px[1]))
        self._previous_request = current

    def _predict(self, current: set[Tile]) -> list[Tile]:
        predicted: list[Tile] = []
        dx, dy = self._direction
        if (dx, dy) != (0, 0):
            for step in range(1, self.momentum_depth + 1):
                for tx, ty in current:
                    predicted.append((tx + dx * step, ty + dy * step))
        if self.neighborhood:
            for tx, ty in current:
                predicted.extend(
                    (tx + ox, ty + oy)
                    for ox in (-1, 0, 1)
                    for oy in (-1, 0, 1)
                    if (ox, oy) != (0, 0)
                )
        seen: set[Tile] = set()
        unique = []
        for tile in predicted:
            if tile not in current and tile not in seen and tile[0] >= 0 and tile[1] >= 0:
                seen.add(tile)
                unique.append(tile)
        return unique

    def _prefetch(self, current: set[Tile]) -> None:
        speculated = 0
        for tile in self._predict(current):
            if tile not in self.cache:
                try:
                    self._fetch(tile, speculative=True)
                except Exception as exc:
                    # Speculative work is disposable: count the failure in
                    # telemetry, keep serving the user's actual request.
                    self.prefetch_errors += 1
                    record_error("cache.prefetch", exc)
                    continue
                speculated += 1
        if speculated and OBS.enabled:
            OBS.metrics.counter(
                "cache.prefetch.speculative_loads", cache=self.cache.name
            ).inc(speculated)

    # -- reporting ---------------------------------------------------------------

    @property
    def demand_hit_rate(self) -> float:
        """Hit rate excluding speculative fills (what the user feels)."""
        demand_requests = self.cache.stats.requests - self.prefetch_loads
        demand_hits = self.cache.stats.hits
        return demand_hits / demand_requests if demand_requests > 0 else 0.0


def _centroid(tiles: set[Tile]) -> tuple[float, float]:
    n = len(tiles)
    return (sum(t[0] for t in tiles) / n, sum(t[1] for t in tiles) / n)


def _sign(x: float) -> int:
    if x > 1e-9:
        return 1
    if x < -1e-9:
        return -1
    return 0
