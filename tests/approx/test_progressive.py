"""Unit and property tests for progressive approximate aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx import ProgressiveAggregator
from repro.approx.progressive import t_score, z_score
from repro.workload import numeric_values


@pytest.fixture
def values():
    return numeric_values(10_000, "normal", seed=4)


class TestProgressiveAggregator:
    def test_final_estimate_is_exact(self, values):
        agg = ProgressiveAggregator(values, seed=0)
        final = list(agg.run(chunk_size=1000))[-1]
        assert final.seen == len(values)
        assert final.mean == pytest.approx(float(np.mean(values)))
        assert final.ci_halfwidth == pytest.approx(0.0, abs=1e-9)

    def test_estimates_monotone_sample_growth(self, values):
        estimates = list(ProgressiveAggregator(values, seed=0).run(chunk_size=500))
        seen = [e.seen for e in estimates]
        assert seen == sorted(seen)
        assert len(estimates) == 20

    def test_ci_shrinks(self, values):
        estimates = list(ProgressiveAggregator(values, seed=0).run(chunk_size=500))
        halfwidths = [e.ci_halfwidth for e in estimates]
        assert halfwidths[-1] < halfwidths[0]
        assert halfwidths[10] < halfwidths[1]

    def test_true_mean_inside_ci_most_of_the_time(self, values):
        true_mean = float(np.mean(values))
        hits = 0
        trials = 50
        for seed in range(trials):
            agg = ProgressiveAggregator(values, seed=seed, confidence=0.95)
            estimate = next(agg.run(chunk_size=500))  # 5% sample
            lo, hi = estimate.mean_interval
            hits += lo <= true_mean <= hi
        assert hits >= int(trials * 0.85)  # allow slack around the nominal 95%

    def test_sum_estimate_scales(self, values):
        agg = ProgressiveAggregator(values, seed=0)
        estimate = next(agg.run(chunk_size=2000))
        assert estimate.sum_estimate == pytest.approx(
            float(np.sum(values)), rel=0.05
        )

    def test_run_until_stops_early(self, values):
        agg = ProgressiveAggregator(values, seed=0)
        estimate = agg.run_until(target_halfwidth=5.0, chunk_size=200)
        assert estimate.ci_halfwidth <= 5.0
        assert estimate.seen < len(values)

    def test_run_until_exhausts_if_unreachable(self, values):
        agg = ProgressiveAggregator(values, seed=0)
        estimate = agg.run_until(target_halfwidth=0.0, chunk_size=5000)
        assert estimate.seen == len(values)

    def test_no_shuffle_preserves_order_bias(self):
        # deliberately ordered data: without shuffling the first chunk is
        # all-small — documents why shuffle=True is the default
        ordered = np.arange(1000, dtype=float)
        agg = ProgressiveAggregator(ordered, seed=0, shuffle=False)
        first = next(agg.run(chunk_size=100))
        assert first.mean == pytest.approx(np.mean(ordered[:100]))

    def test_invalid_confidence(self, values):
        with pytest.raises(ValueError):
            ProgressiveAggregator(values, confidence=0.5)

    def test_invalid_chunk_size(self, values):
        with pytest.raises(ValueError):
            list(ProgressiveAggregator(values).run(chunk_size=0))

    def test_empty_run_until_raises(self):
        with pytest.raises(ValueError):
            ProgressiveAggregator([]).run_until(1.0)

    def test_str_rendering(self, values):
        estimate = next(ProgressiveAggregator(values, seed=0).run(500))
        text = str(estimate)
        assert "±" in text and "95%" in text

    def test_fraction(self, values):
        estimate = next(ProgressiveAggregator(values, seed=0).run(1000))
        assert estimate.fraction == pytest.approx(0.1)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=1, max_size=400),
    chunk=st.integers(1, 100),
    seed=st.integers(0, 100),
)
def test_progressive_converges_to_truth_property(data, chunk, seed):
    """After consuming everything, the estimate equals the exact mean and the
    interval collapses (finite population correction)."""
    agg = ProgressiveAggregator(data, seed=seed)
    final = list(agg.run(chunk_size=chunk))[-1]
    assert final.seen == len(data)
    assert final.mean == pytest.approx(float(np.mean(data)), rel=1e-9, abs=1e-6)
    if len(data) > 1:
        assert final.ci_halfwidth == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("confidence, dof, table", [
    (0.95, 3, 3.182), (0.95, 5, 2.571), (0.95, 10, 2.228), (0.95, 30, 2.042),
    (0.99, 5, 4.032), (0.99, 30, 2.750), (0.90, 4, 2.132),
])
def test_t_score_follows_the_tables(confidence, dof, table):
    assert t_score(confidence, dof) == pytest.approx(table, rel=0.01)
    assert t_score(confidence, dof) > z_score(confidence)


def test_t_score_limits():
    assert t_score(0.95, 10_000) == pytest.approx(z_score(0.95), rel=1e-3)
    assert t_score(0.95, 0) == float("inf")  # one value: no interval


class TestProgressiveSketchAggregator:
    def test_merged_passes_equal_single_pass_hll(self):
        from repro.approx.progressive import ProgressiveSketchAggregator
        from repro.approx.sketch import HllSketch

        values = [f"k{i % 700}" for i in range(4_000)]
        single = HllSketch(precision=11)
        for value in values:
            single.add(value)
        aggregator = ProgressiveSketchAggregator(
            lambda: HllSketch(precision=11)
        )
        chunks = [values[start:start + 1_000] for start in range(0, 4_000, 1_000)]
        estimates = list(aggregator.run(chunks))
        assert aggregator.passes == 4
        assert estimates[-1].value == single.estimate().value

    def test_absorb_returns_running_estimate(self):
        from repro.approx.progressive import ProgressiveSketchAggregator
        from repro.approx.sketch import HllSketch

        aggregator = ProgressiveSketchAggregator(
            lambda: HllSketch(precision=10)
        )
        part = HllSketch(precision=10)
        for i in range(500):
            part.add(i)
        estimate = aggregator.absorb(part)
        assert estimate.value == pytest.approx(500, rel=0.1)
