"""Unit tests for result caching and tile prefetching."""

import pytest

from repro.cache import ResultCache, TilePrefetcher
from repro.workload import pan_zoom_trace, tile_requests


class TestResultCache:
    def test_put_get(self):
        cache = ResultCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1

    def test_miss_returns_default(self):
        cache = ResultCache(4)
        assert cache.get("missing", default="fallback") == "fallback"
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_get_or_compute_caches(self):
        cache = ResultCache(4)
        calls = []

        def expensive():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", expensive) == 42
        assert cache.get_or_compute("k", expensive) == 42
        assert len(calls) == 1

    def test_capacity_bound(self):
        cache = ResultCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_update_existing_no_eviction(self):
        cache = ResultCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats.evictions == 0

    def test_clear(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_hit_rate(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_rate == 0.5


class TestWeightsStampsAndThreads:
    def test_byte_budget_evicts_in_lru_order(self):
        cache = ResultCache(10, max_bytes=100)
        for key in "abc":
            cache.put(key, key, weight=30)
        cache.get("a")  # b is now the least recently used
        cache.put("d", "d", weight=30)
        assert [key in cache for key in "abcd"] == [True, False, True, True]
        assert (cache.bytes, cache.stats.evictions) == (90, 1)
        cache.put("e", "e", weight=80)  # needs c, a and d gone
        assert len(cache) == 1 and "e" in cache and cache.bytes == 80
        assert cache.stats.evictions == 4

    def test_heavier_than_the_budget_is_not_kept(self):
        cache = ResultCache(4, max_bytes=100)
        cache.put("small", 1, weight=10)
        cache.put("huge", 2, weight=101)
        assert "huge" not in cache and "small" in cache
        assert (cache.bytes, cache.stats.evictions) == (10, 0)

    def test_replacing_reweighs(self):
        cache = ResultCache(4, max_bytes=100)
        cache.put("a", 1, weight=10)
        cache.put("b", 2, weight=10)
        cache.put("a", 1, weight=95)  # the same entry, heavier: b has to go
        assert cache.bytes == 95 and "b" not in cache and cache.get("a") == 1
        cache.clear()
        assert cache.bytes == 0 and len(cache) == 0

    def test_entry_count_still_bounds_a_weighted_cache(self):
        cache = ResultCache(2, max_bytes=1000)
        for key in range(5):
            cache.put(key, key, weight=1)
        assert len(cache) == 2 and cache.bytes == 2

    def test_stale_stamp_retires_on_sight(self):
        cache = ResultCache(4)
        cache.put("k", "old", weight=5, stamp=1)
        assert cache.get("k", stamp=1) == "old"
        assert cache.get("k", "gone", stamp=2) == "gone"
        assert "k" not in cache and cache.bytes == 0
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.retired, stats.evictions) == (1, 1, 1, 0)
        assert cache.get_or_compute("k", lambda: "new", stamp=2) == "new"
        assert cache.get_or_compute("k", lambda: "newer", stamp=2) == "new"
        assert cache.get_or_compute("k", lambda: "newer", stamp=3) == "newer"
        assert cache.stats.retired == 2

    def test_threads_sharing_one_cache_keep_its_books(self):
        import sys
        import threading

        cache = ResultCache(8, max_bytes=64)
        rounds, errors = 2000, []

        def work(seed: int) -> None:
            try:
                for step in range(rounds):
                    key = (seed * 7 + step) % 24
                    if cache.get(key, stamp=step % 2) is None:
                        cache.put(key, key, weight=key % 5 + 1, stamp=step % 2)
                    cache.get_or_compute(("c", key % 3), lambda: key)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        # every get was counted once, and the byte total is the entries' own
        assert cache.stats.requests == 8 * rounds * 2
        assert len(cache) <= 8 and cache.bytes <= 64
        assert cache.bytes == sum(slot.weight for slot in cache._data.values())


class TestTilePrefetcher:
    def loader(self, tile):
        return f"tile{tile}"

    def test_serves_correct_tiles(self):
        prefetcher = TilePrefetcher(self.loader, cache_capacity=32)
        results = prefetcher.request([(0, 0), (0, 1)])
        assert results == ["tile(0, 0)", "tile(0, 1)"]

    def test_momentum_prefetch_hits_on_pan(self):
        """Panning steadily right: after warm-up, each viewport's new tiles
        were already prefetched."""
        prefetcher = TilePrefetcher(self.loader, cache_capacity=128, momentum_depth=2)
        for step in range(10):
            tiles = [(step + dx, 0) for dx in range(3)]
            prefetcher.request(tiles)
        assert prefetcher.demand_hit_rate > 0.6

    def test_prefetch_beats_plain_cache_on_directional_pan(self):
        def run(momentum, neighborhood):
            p = TilePrefetcher(
                self.loader, cache_capacity=64,
                momentum_depth=momentum, neighborhood=neighborhood,
            )
            for step in range(15):
                p.request([(step, 0), (step + 1, 0)])
            return p.demand_hit_rate

        with_prefetch = run(momentum=2, neighborhood=True)
        without = run(momentum=0, neighborhood=False)
        assert with_prefetch > without

    def test_realistic_session_hit_rate(self):
        trace = pan_zoom_trace(60, seed=4)
        requests = tile_requests(trace, tile_size=125)
        prefetcher = TilePrefetcher(self.loader, cache_capacity=256)
        for tiles in requests:
            prefetcher.request(tiles)
        assert prefetcher.demand_hit_rate > 0.5

    def test_speculative_loads_counted(self):
        prefetcher = TilePrefetcher(self.loader, cache_capacity=64)
        prefetcher.request([(5, 5)])
        assert prefetcher.prefetch_loads > 0
        assert prefetcher.loads >= prefetcher.prefetch_loads

    def test_negative_tiles_not_prefetched(self):
        prefetcher = TilePrefetcher(self.loader, cache_capacity=64)
        prefetcher.request([(0, 0)])
        for key in list(prefetcher.cache._data):
            assert key[0] >= 0 and key[1] >= 0

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            TilePrefetcher(self.loader, momentum_depth=-1)
