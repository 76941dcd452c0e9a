"""Latency budgets per interaction class, and the one policy judging by them.

The survey's Section 2 requirements are about *real-time, interactive*
exploration: every operation — facet selection, node expansion, drill-down,
pan/zoom — must return within perceptual latency limits even over huge
inputs. Hillview-style systems make that requirement explicit: each
interaction class carries a latency target, and the system keeps always-on
accounting of how often reality meets it.

Three built-in classes (budgets in milliseconds):

* ``interactive`` (100 ms) — direct-manipulation operations whose feedback
  must feel instantaneous: facet refresh, window queries, pans and zooms;
* ``navigation`` (300 ms) — operations that load or derive new data: pivots,
  relationship search, layouts, graph sampling;
* ``progressive`` (1000 ms) — the *cadence* of progressive updates: each
  partial answer should land within a second of the previous one;
* ``batch`` (unbudgeted) — index builds and other preparation work that is
  measured but never counts as a violation.

:class:`LatencyPolicy` holds the budgets and is the one judge of a latency
against them: :meth:`LatencyPolicy.judge` takes one finished operation.
Its views: the :class:`BudgetReport` (per-class compliance, read from the
``obs.interaction_ms`` histograms and the ``obs.budget.violations``
counters), each tenant's **SLO burn rate** (the share of its recent
requests over budget, divided by the ``1 - SLO_OBJECTIVE`` share allowed:
1.0 spends the error budget as fast as it accrues) and the **shed
window**, whose p95 :class:`repro.server.shedding.LoadShedder` holds
against its thresholds. Both windows keep the last ``WINDOW_S`` seconds,
count-bounded; a server feeds windows of its own
(:meth:`LatencyPolicy.windowed`) one judgement per finished request.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import asdict, dataclass

from .metrics import TIME_MS_BUCKETS, Histogram, MetricsRegistry

__all__ = [
    "INTERACTIVE",
    "NAVIGATION",
    "PROGRESSIVE",
    "BATCH",
    "DEFAULT_BUDGETS_MS",
    "LatencyBudget",
    "ClassReport",
    "BudgetReport",
    "LatencyPolicy",
    "TenantSlo",
]

INTERACTIVE = "interactive"
NAVIGATION = "navigation"
PROGRESSIVE = "progressive"
BATCH = "batch"

DEFAULT_BUDGETS_MS: dict[str, float | None] = {
    INTERACTIVE: 100.0,
    NAVIGATION: 300.0,
    PROGRESSIVE: 1_000.0,
    BATCH: None,
}

# The in-budget share each tenant's recent requests owe (a 1% error
# budget), how far back the windows look, and how much each one holds.
SLO_OBJECTIVE = 0.99
WINDOW_S = 30.0
TENANT_SAMPLES = 512
SHED_WINDOW = 64

LATENCY = "obs.interaction_ms"
VIOLATIONS = "obs.budget.violations"
_UNSEEN = Histogram(LATENCY, buckets=TIME_MS_BUCKETS)  # never recorded into

_clock = time.monotonic


@dataclass(frozen=True)
class LatencyBudget:
    """One interaction class's target: ``limit_ms`` of ``None`` = unbudgeted."""

    interaction_class: str
    limit_ms: float | None

    def violated_by(self, duration_ms: float) -> bool:
        return self.limit_ms is not None and duration_ms > self.limit_ms


@dataclass(frozen=True)
class ClassReport:
    """Accounting for one interaction class."""

    interaction_class: str
    limit_ms: float | None
    count: int
    violations: int
    total_ms: float
    max_ms: float
    p50_ms: float
    p95_ms: float

    @property
    def compliance(self) -> float:
        """Fraction of observations inside budget (1.0 when none seen)."""
        return _compliance(self.count, self.violations)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        record = {**asdict(self), "compliance": self.compliance,
                  "mean_ms": self.mean_ms}
        del record["total_ms"]
        return {key: round(value, 6) if isinstance(value, float) else value
                for key, value in record.items()}


@dataclass(frozen=True)
class BudgetReport:
    """Per-class compliance summary over everything observed so far."""

    classes: tuple[ClassReport, ...]

    @property
    def total_interactions(self) -> int:
        return sum(entry.count for entry in self.classes)

    @property
    def total_violations(self) -> int:
        return sum(entry.violations for entry in self.classes)

    @property
    def overall_compliance(self) -> float:
        return _compliance(self.total_interactions, self.total_violations)

    def for_class(self, interaction_class: str) -> ClassReport | None:
        return next((entry for entry in self.classes
                     if entry.interaction_class == interaction_class), None)

    def to_dict(self) -> dict[str, object]:
        return {
            "total_interactions": self.total_interactions,
            "total_violations": self.total_violations,
            "overall_compliance": round(self.overall_compliance, 6),
            "classes": [entry.to_dict() for entry in self.classes],
        }

    def render(self) -> str:
        """Human-readable compliance table."""
        lines = [
            f"{'class':<14}{'budget':>10}{'count':>8}{'viol':>6}"
            f"{'compliance':>12}{'p50':>10}{'p95':>10}{'max':>10}"
        ]
        for entry in self.classes:
            budget = "-" if entry.limit_ms is None else f"{entry.limit_ms:g}ms"
            lines.append(
                f"{entry.interaction_class:<14}{budget:>10}{entry.count:>8}"
                f"{entry.violations:>6}{entry.compliance:>11.1%} "
                f"{entry.p50_ms:>8.2f}{entry.p95_ms:>10.2f}{entry.max_ms:>10.2f}"
            )
        lines.append(
            f"overall: {self.total_interactions} interactions, "
            f"{self.total_violations} violations "
            f"({self.overall_compliance:.1%} compliant)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class TenantSlo:
    """One tenant's rolling-window SLO state at one instant."""

    tenant: str
    objective: float
    count: int
    violations: int
    burn_rate: float
    by_class: dict[str, int]

    @property
    def compliance(self) -> float:
        return _compliance(self.count, self.violations)

    def to_dict(self) -> dict[str, object]:
        return {**asdict(self), "compliance": round(self.compliance, 6),
                "burn_rate": round(self.burn_rate, 6),
                "by_class": dict(sorted(self.by_class.items()))}


class LatencyPolicy:
    """The one judge of a latency against its class budget: ``judge``
    accounts a finished operation for the report and, given its tenant,
    feeds the windows."""

    def __init__(
        self,
        budgets: dict[str, float | None] | None = None,
        metrics: MetricsRegistry | None = None,
        shed_window: int = SHED_WINDOW,
    ) -> None:
        if shed_window < 1:
            raise ValueError("shed_window must be positive")
        self._lock = threading.Lock()
        self._budgets: dict[str, LatencyBudget] = {}
        for name, limit in (DEFAULT_BUDGETS_MS if budgets is None
                            else budgets).items():
            self.set_budget(name, limit)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        # tenant -> its recent (monotonic s, class, violated) judgements
        self._tenants = collections.defaultdict(_Window)  # guarded-by: _lock
        self._shed: collections.deque[tuple[float, float]] \
            = collections.deque(maxlen=shed_window)  # guarded-by: _lock

    def windowed(self, shed_window: int = SHED_WINDOW) -> "LatencyPolicy":
        """A policy with windows of its own (a server's) that judges by
        this one's budgets — live: ``set_budget`` on either is seen by
        both — and reports into the same metrics."""
        policy = LatencyPolicy({}, self.metrics, shed_window)
        policy._budgets = self._budgets
        return policy

    # -- configuration -----------------------------------------------------

    def set_budget(self, interaction_class: str, limit_ms: float | None) -> None:
        """Register or override one class's budget (``None`` = unbudgeted)."""
        if limit_ms is not None and limit_ms <= 0:
            raise ValueError("limit_ms must be positive (or None)")
        with self._lock:
            self._budgets[interaction_class] = LatencyBudget(
                interaction_class, limit_ms
            )

    def budget(self, interaction_class: str) -> LatencyBudget:
        """The class's budget; unknown classes are unbudgeted."""
        return (self._budgets.get(interaction_class)
                or LatencyBudget(interaction_class, None))

    def _by_class(self, name: str) -> dict[str, object]:
        """The metrics called ``name``, keyed by their interaction class."""
        return {dict(metric.labels)["interaction_class"]: metric
                for metric in self.metrics if metric.name == name}

    # -- judging -----------------------------------------------------------

    def judge(self, tenant: str | None, interaction_class: str,
              duration_ms: float, shed: bool = False) -> bool:
        """Judge one finished operation: into its class's latency histogram
        (and violation counter, over budget), and with a ``tenant`` into
        that tenant's window — with ``shed`` into the shed window too.
        Returns whether it blew its budget (unbudgeted classes never do)."""
        violated = self.budget(interaction_class).violated_by(duration_ms)
        self.metrics.histogram(
            LATENCY, TIME_MS_BUCKETS, interaction_class=interaction_class
        ).record(duration_ms)
        if violated:
            self.metrics.counter(
                VIOLATIONS, interaction_class=interaction_class
            ).inc()
        if tenant is not None:
            now = _clock()
            with self._lock:
                self._tenants[tenant].append((now, interaction_class,
                                              violated))
                if shed:
                    self._shed.append((now, float(duration_ms)))
        return violated

    # -- the budget report -------------------------------------------------

    def report(self) -> BudgetReport:
        """Compliance snapshot across every class observed or budgeted."""
        histograms = self._by_class(LATENCY)
        violations = self._by_class(VIOLATIONS)
        entries: list[ClassReport] = []
        for name in sorted(set(self._budgets) | set(histograms)):
            summary = histograms.get(name, _UNSEEN).summary()
            entries.append(ClassReport(
                interaction_class=name,
                limit_ms=self.budget(name).limit_ms,
                count=int(summary["count"]),
                violations=violations[name].value if name in violations
                else 0,
                total_ms=summary["sum"],
                max_ms=summary["max"],
                p50_ms=summary["p50"],
                p95_ms=summary["p95"],
            ))
        return BudgetReport(tuple(entries))

    # -- the windows -------------------------------------------------------

    def _tenant_locked(self, tenant: str, now: float) -> TenantSlo:
        window = self._tenants.get(tenant) or _Window()
        _prune(window, now)
        violations = window.violations
        burn = (violations / len(window)) / (1.0 - SLO_OBJECTIVE) \
            if window else 0.0
        return TenantSlo(tenant, SLO_OBJECTIVE, len(window), violations,
                         burn, dict(+window.by_class))

    def burn_rate(self, tenant: str) -> float:
        """The tenant's current burn rate (0.0 for unseen tenants)."""
        with self._lock:
            return self._tenant_locked(tenant, _clock()).burn_rate

    def peak_burn_rate(self) -> float:
        """The highest burn rate across all tenants (0.0 when empty).

        The shedder uses this to tell *attributable* overload (spare the
        healthy tenants, degrade the offender) from diffuse overload
        (no offender — shed everyone).
        """
        return max((state.burn_rate for state in self.snapshot().values()),
                   default=0.0)

    def snapshot(self) -> dict[str, TenantSlo]:
        """Every tenant's state, keyed by tenant name."""
        now = _clock()
        with self._lock:
            return {name: self._tenant_locked(name, now)
                    for name in sorted(self._tenants)}

    def shed_p95(self) -> tuple[float, int]:
        """The shed window's p95 latency (ms) and how many it holds."""
        with self._lock:
            _prune(self._shed, _clock())
            durations = sorted(duration for _, duration in self._shed)
        n = len(durations)
        if not n:
            return 0.0, 0
        return durations[min(n - 1, max(0, int(0.95 * n + 0.5) - 1))], n

    def reset(self) -> None:
        """Forget what was observed and judged; the budgets stay."""
        self.metrics.discard(LATENCY)
        self.metrics.discard(VIOLATIONS)
        with self._lock:
            self._tenants.clear()
            self._shed.clear()


def _compliance(count: int, violations: int) -> float:
    return 1.0 - violations / count if count else 1.0


def _prune(window, now: float) -> None:
    """Drop a window's entries older than ``WINDOW_S``."""
    while window and now - window[0][0] > WINDOW_S:
        window.popleft()


class _Window(collections.deque):
    """A tenant's last ``TENANT_SAMPLES`` (monotonic s, class, violated)
    judgements, with running violation and per-class counts that every
    entry in (``judge``) or out (``_prune``, or the oldest one a full
    window drops on append) adjusts: a burn rate is read, not recounted."""

    def __init__(self) -> None:
        super().__init__(maxlen=TENANT_SAMPLES)
        self.violations = 0
        self.by_class: collections.Counter[str] = collections.Counter()

    def append(self, entry: tuple[float, str, bool]) -> None:
        if len(self) == self.maxlen:
            self.popleft()  # what the append would drop, counted out
        super().append(entry)
        self.violations += entry[2]
        self.by_class[entry[1]] += 1

    def popleft(self) -> tuple[float, str, bool]:
        entry = super().popleft()
        self.violations -= entry[2]
        self.by_class[entry[1]] -= 1
        return entry
