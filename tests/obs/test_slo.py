"""The latency policy's windows: per-tenant burn rate and the shed window."""

import collections
import random

import pytest

from repro.obs.budget import (
    INTERACTIVE,
    SLO_OBJECTIVE,
    TENANT_SAMPLES,
    WINDOW_S,
    LatencyPolicy,
    TenantSlo,
)

SLOW, FAST = 250.0, 1.0  # against the 100 ms interactive budget


def _feed(policy: LatencyPolicy, tenant: str, violated: bool, n: int) -> None:
    for _ in range(n):
        policy.judge(tenant, INTERACTIVE, SLOW if violated else FAST)


class TestBurnRate:
    def test_unseen_tenant_burns_nothing(self):
        assert LatencyPolicy().burn_rate("nobody") == 0.0

    def test_all_good_is_zero_burn(self):
        policy = LatencyPolicy()
        _feed(policy, "t", violated=False, n=50)
        assert policy.burn_rate("t") == 0.0
        assert policy.snapshot()["t"].compliance == 1.0

    def test_burn_one_means_budget_consumed_exactly(self):
        # 1 violation in 100 at a 99% objective: burning exactly at rate 1.
        assert SLO_OBJECTIVE == 0.99
        policy = LatencyPolicy()
        _feed(policy, "t", violated=False, n=99)
        _feed(policy, "t", violated=True, n=1)
        assert policy.burn_rate("t") == pytest.approx(1.0)

    def test_burn_scales_with_violation_fraction(self):
        policy = LatencyPolicy()
        _feed(policy, "t", violated=False, n=90)
        _feed(policy, "t", violated=True, n=10)
        assert policy.burn_rate("t") == pytest.approx(10.0)

    def test_tenants_are_independent(self):
        policy = LatencyPolicy()
        _feed(policy, "good", violated=False, n=20)
        _feed(policy, "bad", violated=True, n=20)
        assert policy.burn_rate("good") == 0.0
        assert policy.burn_rate("bad") == pytest.approx(100.0)
        assert list(policy.snapshot()) == ["bad", "good"]

    def test_peak_burn_rate_is_the_worst_tenant(self):
        policy = LatencyPolicy()
        assert policy.peak_burn_rate() == 0.0
        _feed(policy, "good", violated=False, n=20)
        _feed(policy, "bad", violated=False, n=18)
        _feed(policy, "bad", violated=True, n=2)
        assert policy.peak_burn_rate() == pytest.approx(10.0)


class TestWindows:
    def test_count_bound_evicts_oldest(self):
        policy = LatencyPolicy()
        _feed(policy, "t", violated=True, n=TENANT_SAMPLES)
        # pushes every violation out
        _feed(policy, "t", violated=False, n=TENANT_SAMPLES)
        assert policy.burn_rate("t") == 0.0
        assert policy.snapshot()["t"].count == TENANT_SAMPLES

    def test_age_bound_prunes(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr("repro.obs.budget._clock", lambda: now[0])
        policy = LatencyPolicy()
        _feed(policy, "t", violated=True, n=4)
        policy.judge("t", INTERACTIVE, 10.0, shed=True)
        assert policy.burn_rate("t") > 0
        assert policy.shed_p95() == (10.0, 1)
        now[0] = 31.0  # everything aged out of both windows
        assert policy.burn_rate("t") == 0.0
        assert policy.snapshot()["t"].count == 0
        assert policy.shed_p95() == (0.0, 0)

    def test_only_shed_requests_enter_the_shed_window(self):
        policy = LatencyPolicy(shed_window=4)
        policy.judge("t", INTERACTIVE, 500.0)
        for duration in (1.0, 2.0, 3.0, 4.0, 5.0):
            policy.judge("t", INTERACTIVE, duration, shed=True)
        assert policy.shed_p95() == (5.0, 4)  # the newest four
        assert policy.snapshot()["t"].count == 6


    def test_running_counts_equal_a_recount(self, monkeypatch):
        # Judgements outnumber a window's bound (eviction on append) and
        # the clock jumps past WINDOW_S (pruning on read); at random points
        # every tenant's state must equal a recount of what it was fed.
        rng = random.Random(20261017)
        now = [0.0]
        monkeypatch.setattr("repro.obs.budget._clock", lambda: now[0])
        policy = LatencyPolicy()
        fed: dict[str, list[tuple[float, str, bool]]] = {}
        classes = [INTERACTIVE, "navigation", "progressive"]

        def recount(tenant: str) -> TenantSlo:
            window = [entry for entry in fed[tenant][-TENANT_SAMPLES:]
                      if now[0] - entry[0] <= WINDOW_S]
            violations = sum(bad for _, _, bad in window)
            burn = ((violations / len(window)) / (1.0 - SLO_OBJECTIVE)
                    if window else 0.0)
            return TenantSlo(tenant, SLO_OBJECTIVE, len(window), violations,
                             burn, dict(collections.Counter(
                                 name for _, name, _ in window)))

        evicted = pruned = False
        for step in range(6000):
            now[0] += rng.choice([0.0, 0.002, 0.01]) if rng.random() > 0.002 \
                else rng.uniform(5.0, 2 * WINDOW_S)
            tenant = rng.choice("abc")
            name = rng.choice(classes)
            slow = rng.random() < 0.3
            limit = policy.budget(name).limit_ms
            violated = policy.judge(tenant, name, 2 * limit if slow else 1.0)
            fed.setdefault(tenant, []).append((now[0], name, violated))
            evicted |= len(fed[tenant]) > TENANT_SAMPLES and now[0] - \
                fed[tenant][-TENANT_SAMPLES - 1][0] <= WINDOW_S
            pruned |= any(now[0] - entry[0] > WINDOW_S
                          for entry in fed[tenant][-TENANT_SAMPLES:][:1])
            if rng.random() < 0.05:
                probe = rng.choice("abcd")
                expected = recount(probe).burn_rate if probe in fed else 0.0
                assert policy.burn_rate(probe) == expected
            if rng.random() < 0.02:
                assert policy.snapshot() == {t: recount(t) for t in sorted(fed)}
                assert policy.peak_burn_rate() == max(
                    recount(t).burn_rate for t in fed)
        assert evicted and pruned
        assert policy.snapshot() == {t: recount(t) for t in sorted(fed)}


class TestBudgetDerivation:
    def test_violated_derived_from_budget_tracker(self):
        policy = LatencyPolicy({INTERACTIVE: 100.0})
        assert policy.judge("t", INTERACTIVE, 250.0) is True
        assert policy.judge("t", INTERACTIVE, 50.0) is False
        assert policy.snapshot()["t"].violations == 1

    def test_without_budgets_nothing_violates(self):
        policy = LatencyPolicy({})
        assert policy.judge("t", INTERACTIVE, 10_000.0) is False

    def test_windowed_judges_by_the_shared_budgets(self):
        process = LatencyPolicy()
        server = process.windowed(shed_window=8)
        process.set_budget(INTERACTIVE, 10.0)  # seen live by the server's
        assert server.judge("t", INTERACTIVE, 50.0) is True
        assert process.snapshot() == {}  # the windows are the server's own
        # ... and the report is the process's
        assert process.report().for_class(INTERACTIVE).violations == 1


class TestSnapshot:
    def test_snapshot_and_to_dict(self):
        policy = LatencyPolicy()
        policy.judge("t", INTERACTIVE, 1.0)
        policy.judge("t", "navigation", 1_000.0)
        state = policy.snapshot()["t"]
        assert state.count == 2 and state.violations == 1
        assert state.by_class == {"interactive": 1, "navigation": 1}
        record = state.to_dict()
        assert record["tenant"] == "t"
        assert record["objective"] == SLO_OBJECTIVE
        assert record["compliance"] == pytest.approx(0.5)

    def test_reset(self):
        policy = LatencyPolicy()
        policy.judge("t", INTERACTIVE, 500.0, shed=True)
        policy.reset()
        assert policy.snapshot() == {}
        assert policy.shed_p95() == (0.0, 0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shed_window": 0}, {"shed_window": -1},
        {"budgets": {INTERACTIVE: 0.0}}, {"budgets": {INTERACTIVE: -5.0}},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LatencyPolicy(**kwargs)
