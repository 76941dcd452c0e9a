"""Load-shedding tiers: from exact answers to bounded-work approximations.

The survey's central systems claim (Section 2): interactive exploration of
big data survives load by *degrading gracefully* — sampling and
approximation with error bounds — not by queueing exact work it cannot
finish in time. :class:`LoadShedder` is the controller that decides, per
request, which tier the server answers from:

* **EXACT** (tier 0) — normal operation, every answer exact;
* **SAMPLED** (tier 1) — the windowed p95 of interactive request latency
  exceeds the ``interactive`` budget (:data:`repro.obs.budget.
  DEFAULT_BUDGETS_MS`): eligible aggregate queries are answered from a
  bounded-work streaming estimate with a confidence interval
  (:mod:`repro.server.approximate`);
* **AGGRESSIVE** (tier 2) — p95 beyond ``aggressive_factor``× budget: the
  same path with a quarter of the row budget.

This module is only the tier rule. The latencies it decides on are the
shed window of a :class:`repro.obs.budget.LatencyPolicy` (count- and
age-bounded, fed once per finished request) rather than the cumulative
budget histogram, so the controller *recovers*: once load subsides and
fast requests refill the window, the tier steps back down. Hysteresis
(``recover_fraction``) keeps the boundary from flapping: escalation
happens at the budget, de-escalation only below a fraction of it.

:meth:`LoadShedder.decide` optionally takes the requesting tenant's SLO
**burn rate** (from the same policy), making shedding
tenant-aware: a tenant burning its error budget (burn ≥
``burn_shed_threshold``) is escalated one tier *beyond* the global tier,
while a well-behaved tenant (burn ≤ ``burn_protect_fraction``) riding
out someone else's overload is protected — de-escalated from SAMPLED
back to EXACT. The offender degrades to approximate answers before the
well-behaved tenants ever notice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..obs.budget import DEFAULT_BUDGETS_MS, INTERACTIVE, LatencyPolicy

__all__ = ["EXACT", "SAMPLED", "AGGRESSIVE", "TIER_NAMES", "LoadShedder"]

EXACT = 0
SAMPLED = 1
AGGRESSIVE = 2

TIER_NAMES = {EXACT: "exact", SAMPLED: "sampled", AGGRESSIVE: "aggressive"}


@dataclass(frozen=True)
class ShedSnapshot:
    """The controller's state at one instant (the /stats view)."""

    tier: int
    p95_ms: float
    budget_ms: float
    window_size: int
    burn_escalations: int = 0
    burn_protections: int = 0

    @property
    def tier_name(self) -> str:
        return TIER_NAMES.get(self.tier, str(self.tier))


class LoadShedder:
    """Tier controller with hysteresis over ``policy``'s shed window.

    The window holds finished interactive requests' total latencies (queue
    wait included — the user's clock does not stop while queued); ``tier``
    recomputes the current tier from its p95, in O(window), thread-safe.
    """

    def __init__(
        self,
        policy: LatencyPolicy,
        budget_ms: float | None = None,
        min_observations: int = 8,
        aggressive_factor: float = 3.0,
        recover_fraction: float = 0.8,
        burn_shed_threshold: float = 1.0,
        burn_protect_fraction: float = 0.25,
    ) -> None:
        if budget_ms is None:
            budget_ms = DEFAULT_BUDGETS_MS[INTERACTIVE] or 100.0
        if budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        if not 0.0 < recover_fraction <= 1.0:
            raise ValueError("recover_fraction must be in (0, 1]")
        self.policy = policy
        self.budget_ms = float(budget_ms)
        self.min_observations = max(1, min_observations)
        self.aggressive_factor = aggressive_factor
        self.recover_fraction = recover_fraction
        self.burn_shed_threshold = burn_shed_threshold
        self.burn_protect_fraction = burn_protect_fraction
        self._lock = threading.Lock()
        self._tier = EXACT  # guarded-by: _lock
        self.shed_decisions = 0
        self.exact_decisions = 0
        self.burn_escalations = 0
        self.burn_protections = 0

    # -- decisions ---------------------------------------------------------

    def tier(self) -> int:
        """The current shedding tier, recomputed from the window.

        Escalation thresholds: budget (→ SAMPLED), ``aggressive_factor`` ×
        budget (→ AGGRESSIVE). De-escalation needs p95 below
        ``recover_fraction`` × the *lower* tier's threshold — the
        hysteresis band that prevents tier flapping at the boundary.
        """
        p95, n = self.policy.shed_p95()
        with self._lock:
            if n < self.min_observations:
                # Too little signal to justify degrading answers.
                self._tier = EXACT
                return self._tier
            thresholds = {
                SAMPLED: self.budget_ms,
                AGGRESSIVE: self.budget_ms * self.aggressive_factor,
            }
            if p95 > thresholds[AGGRESSIVE]:
                target = AGGRESSIVE
            elif p95 > thresholds[SAMPLED]:
                target = SAMPLED
            else:
                target = EXACT
            current = self._tier
            if target >= current:
                # Escalate (or hold) immediately: overload is now.
                self._tier = target
            elif p95 < thresholds[current] * self.recover_fraction:
                # Recover one tier at a time, and only once p95 is clearly
                # below the current tier's threshold (hysteresis band).
                self._tier = current - 1
            return self._tier

    def decide(self, burn_rate: float | None = None,
               peak_burn: float | None = None) -> int:
        """``tier()`` plus decision accounting (the per-request entry point).

        With ``burn_rate`` (the requesting tenant's SLO burn from
        :meth:`LatencyPolicy.burn_rate`), the global tier is adjusted
        per tenant: an offender burning its error budget (burn ≥
        ``burn_shed_threshold``) answers one tier higher than the global
        tier, while a clearly healthy tenant (burn ≤
        ``burn_protect_fraction``) is never held at SAMPLED by *someone
        else's* overload — it de-escalates back to EXACT, but only when
        ``peak_burn`` (the highest burn across all tenants) names an
        actual offender. Diffuse overload with no offender sheds
        everyone, exactly as before burn awareness; AGGRESSIVE is global
        overload and protects nobody.
        """
        tier = self.tier()
        if burn_rate is not None:
            if burn_rate >= self.burn_shed_threshold:
                adjusted = min(AGGRESSIVE, tier + 1)
                if adjusted != tier:
                    with self._lock:
                        self.burn_escalations += 1
                tier = adjusted
            elif (burn_rate <= self.burn_protect_fraction
                    and tier == SAMPLED
                    and peak_burn is not None
                    and peak_burn >= self.burn_shed_threshold):
                with self._lock:
                    self.burn_protections += 1
                tier = EXACT
        with self._lock:
            if tier == EXACT:
                self.exact_decisions += 1
            else:
                self.shed_decisions += 1
        return tier

    def snapshot(self) -> ShedSnapshot:
        p95, n = self.policy.shed_p95()
        with self._lock:
            return ShedSnapshot(
                tier=self._tier, p95_ms=p95,
                budget_ms=self.budget_ms, window_size=n,
                burn_escalations=self.burn_escalations,
                burn_protections=self.burn_protections,
            )
