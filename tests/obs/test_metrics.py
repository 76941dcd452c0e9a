"""Metrics: counters, gauges, histogram bucket semantics, registry keying."""

import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache.hits", cache="result")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registry_returns_same_instance_per_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", cache="x")
        b = registry.counter("hits", cache="x")
        c = registry.counter("hits", cache="y")
        assert a is b
        assert a is not c

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_thread_safe_increments(self):
        counter = Counter("n")

        def work():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestGauge:
    def test_up_and_down(self):
        gauge = Gauge("pool.resident")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.inc(-1)
        assert gauge.value == 11.5


class TestHistogramBuckets:
    def test_boundary_values_are_upper_bound_inclusive(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 5.0))
        h.record(1.0)  # exactly on a bound -> that bucket
        h.record(1.0000001)  # just above -> next bucket
        h.record(5.0)
        h.record(6.0)  # above last bound -> overflow
        assert h.bucket_counts() == [
            (1.0, 1),
            (2.0, 1),
            (5.0, 1),
            (float("inf"), 1),
        ]
        assert h.count == 4

    def test_unsorted_duplicate_bounds_rejected(self):
        assert Histogram("h", buckets=(5, 1, 2)).bounds == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_percentiles_interpolate(self):
        h = Histogram("v", buckets=tuple(range(10, 101, 10)))
        for value in range(1, 101):
            h.record(float(value))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(0.5) == pytest.approx(50.0, abs=5.0)
        assert h.percentile(0.95) == pytest.approx(95.0, abs=5.0)
        assert h.percentile(1.0) == pytest.approx(100.0, abs=5.0)

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("v", buckets=(100.0,))
        h.record(7.0)
        # one wide bucket, one observation: every quantile is that value
        assert h.percentile(0.0) == 7.0
        assert h.percentile(0.5) == 7.0
        assert h.percentile(0.99) == 7.0

    def test_overflow_percentile_returns_observed_max(self):
        h = Histogram("v", buckets=(1.0,))
        h.record(50.0)
        h.record(90.0)
        assert h.percentile(0.99) == 90.0

    def test_empty_histogram(self):
        h = Histogram("v", buckets=(1.0,))
        assert h.percentile(0.5) == 0.0
        assert h.summary()["count"] == 0.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_summary_keys(self):
        h = Histogram("v")
        h.record(0.2)
        summary = h.summary()
        assert set(summary) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert summary["min"] == summary["max"] == 0.2


class TestRegistrySnapshot:
    def test_flat_keys_include_labels(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits", cache="result").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(1.0,)).record(0.5)
        snap = registry.snapshot()
        assert snap["cache.hits{cache=result}"] == {"type": "counter", "value": 3}
        assert snap["depth"]["type"] == "gauge"
        assert snap["lat"]["type"] == "histogram"
        assert len(registry) == 3

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}
