"""Load-shedding controller: escalation, hysteresis, recovery."""

from repro.obs.budget import INTERACTIVE, LatencyPolicy
from repro.server.shedding import (
    AGGRESSIVE,
    EXACT,
    SAMPLED,
    TIER_NAMES,
    LoadShedder,
)


def _shedder(window: int = 64, **kwargs) -> LoadShedder:
    return LoadShedder(LatencyPolicy(shed_window=window), **kwargs)


def _feed(shedder: LoadShedder, duration_ms: float, n: int) -> None:
    for _ in range(n):
        shedder.policy.judge("t", INTERACTIVE, duration_ms, shed=True)


class TestEscalation:
    def test_starts_exact(self):
        assert _shedder(budget_ms=100).tier() == EXACT

    def test_exact_below_budget(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 50, 10)
        assert shedder.tier() == EXACT

    def test_sampled_above_budget(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)
        assert shedder.tier() == SAMPLED

    def test_aggressive_above_factor(self):
        shedder = _shedder(budget_ms=100, min_observations=4,
                           aggressive_factor=3.0)
        _feed(shedder, 500, 10)
        assert shedder.tier() == AGGRESSIVE

    def test_too_few_observations_stays_exact(self):
        shedder = _shedder(budget_ms=100, min_observations=8)
        _feed(shedder, 10_000, 7)  # slow, but not enough signal
        assert shedder.tier() == EXACT

    def test_p95_ignores_minority_of_slow_requests(self):
        shedder = _shedder(budget_ms=100, window=64, min_observations=4)
        _feed(shedder, 10, 63)
        _feed(shedder, 5_000, 1)  # one outlier is not overload
        assert shedder.tier() == EXACT


class TestRecovery:
    def test_recovers_when_fast_requests_refill_window(self):
        shedder = _shedder(budget_ms=100, window=16, min_observations=4)
        _feed(shedder, 150, 16)
        assert shedder.tier() == SAMPLED
        _feed(shedder, 20, 16)  # window now holds only fast requests
        assert shedder.tier() == EXACT

    def test_deescalates_one_tier_at_a_time(self):
        shedder = _shedder(budget_ms=100, window=16, min_observations=4,
                           aggressive_factor=3.0)
        _feed(shedder, 500, 16)
        assert shedder.tier() == AGGRESSIVE
        _feed(shedder, 20, 16)
        assert shedder.tier() == SAMPLED  # first step down
        assert shedder.tier() == EXACT  # second decision completes recovery

    def test_hysteresis_holds_tier_inside_band(self):
        # p95 drops just below the budget but above recover_fraction x budget:
        # the tier must hold (no flapping at the boundary).
        shedder = _shedder(budget_ms=100, window=16, min_observations=4,
                           recover_fraction=0.8)
        _feed(shedder, 150, 16)
        assert shedder.tier() == SAMPLED
        _feed(shedder, 90, 16)  # inside (80, 100): hysteresis band
        assert shedder.tier() == SAMPLED
        _feed(shedder, 50, 16)  # clearly below 80: recover
        assert shedder.tier() == EXACT

    def test_old_observations_age_out(self):
        clock = [0.0]
        shedder = _shedder(budget_ms=100, window=64, min_observations=4)
        import repro.obs.budget as budget_module
        original = budget_module._clock
        budget_module._clock = lambda: clock[0]
        try:
            _feed(shedder, 500, 10)
            assert shedder.tier() == AGGRESSIVE
            clock[0] = 60.0  # everything in the window is now stale
            assert shedder.tier() == EXACT  # below min_observations again
        finally:
            budget_module._clock = original


class TestAccounting:
    def test_decide_counts_decisions(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 10, 8)
        shedder.decide()
        _feed(shedder, 900, 8)
        shedder.decide()
        assert shedder.exact_decisions == 1
        assert shedder.shed_decisions == 1

    def test_snapshot(self):
        shedder = _shedder(budget_ms=100, min_observations=2)
        _feed(shedder, 200, 8)
        shedder.tier()
        snapshot = shedder.snapshot()
        assert snapshot.tier == 1
        assert snapshot.tier_name == TIER_NAMES[1] == "sampled"
        assert snapshot.p95_ms == 200
        assert snapshot.budget_ms == 100
        assert snapshot.window_size == 8

    def test_rejects_bad_parameters(self):
        import pytest

        with pytest.raises(ValueError):
            _shedder(budget_ms=0)
        with pytest.raises(ValueError):
            _shedder(budget_ms=100, recover_fraction=0.0)


class TestBurnRateAwareDecisions:
    def test_offending_tenant_escalates_from_exact(self):
        # No global overload at all: the budget-burning tenant alone sheds.
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 10, 10)
        assert shedder.decide(burn_rate=None) == EXACT
        assert shedder.decide(burn_rate=2.0) == SAMPLED
        assert shedder.burn_escalations == 1

    def test_offender_escalates_one_tier_above_global(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)  # global SAMPLED
        assert shedder.decide(burn_rate=0.5) == SAMPLED
        assert shedder.decide(burn_rate=1.5) == AGGRESSIVE

    def test_escalation_caps_at_aggressive(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 500, 10)  # global AGGRESSIVE
        assert shedder.decide(burn_rate=9.0) == AGGRESSIVE

    def test_healthy_tenant_protected_from_sampled(self):
        # Someone else's burn put the server at SAMPLED; a tenant with
        # near-zero burn still gets exact answers.
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)
        assert shedder.decide(burn_rate=0.0, peak_burn=5.0) == EXACT
        assert shedder.burn_protections == 1

    def test_diffuse_overload_protects_nobody(self):
        # Global SAMPLED but no tenant is burning (slow-but-within-budget
        # traffic): protection must not defeat global shedding.
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)
        assert shedder.decide(burn_rate=0.0, peak_burn=0.0) == SAMPLED
        assert shedder.decide(burn_rate=0.0) == SAMPLED  # no peak known
        assert shedder.burn_protections == 0

    def test_aggressive_protects_nobody(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 500, 10)
        assert shedder.decide(burn_rate=0.0, peak_burn=5.0) == AGGRESSIVE

    def test_middling_burn_follows_the_global_tier(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)
        assert shedder.decide(burn_rate=0.5) == SAMPLED
        assert shedder.burn_escalations == 0
        assert shedder.burn_protections == 0

    def test_no_burn_rate_is_the_legacy_path(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 150, 10)
        assert shedder.decide() == SAMPLED

    def test_snapshot_carries_burn_counters(self):
        shedder = _shedder(budget_ms=100, min_observations=4)
        _feed(shedder, 10, 10)
        shedder.decide(burn_rate=2.0)
        snapshot = shedder.snapshot()
        assert snapshot.burn_escalations == 1
        assert snapshot.burn_protections == 0
