"""Latency budgets: policy accounting, reports, and the interaction API."""

import pytest

from repro.obs import (
    BATCH,
    INTERACTIVE,
    NAVIGATION,
    OBS,
    PROGRESSIVE,
    LatencyBudget,
    LatencyPolicy,
    track,
)


class TestLatencyBudget:
    def test_violation_predicate(self):
        budget = LatencyBudget(INTERACTIVE, 100.0)
        assert not budget.violated_by(99.9)
        assert not budget.violated_by(100.0)  # inclusive limit
        assert budget.violated_by(100.1)

    def test_unbudgeted_never_violates(self):
        assert not LatencyBudget(BATCH, None).violated_by(1e9)


class TestBudgetTracker:
    def test_defaults_cover_the_four_classes(self):
        tracker = LatencyPolicy()
        assert tracker.budget(INTERACTIVE).limit_ms == 100.0
        assert tracker.budget(NAVIGATION).limit_ms == 300.0
        assert tracker.budget(PROGRESSIVE).limit_ms == 1_000.0
        assert tracker.budget(BATCH).limit_ms is None

    def test_unknown_class_is_unbudgeted(self):
        tracker = LatencyPolicy()
        assert tracker.budget("custom").limit_ms is None
        assert not tracker.judge(None, "custom", 1e6)

    def test_observe_accounts_and_flags(self):
        tracker = LatencyPolicy()
        assert not tracker.judge(None, INTERACTIVE, 50.0)
        assert tracker.judge(None, INTERACTIVE, 150.0)
        entry = tracker.report().for_class(INTERACTIVE)
        assert entry.count == 2
        assert entry.violations == 1
        assert entry.compliance == 0.5
        assert entry.max_ms == 150.0
        assert entry.mean_ms == 100.0

    def test_set_budget_overrides_and_validates(self):
        tracker = LatencyPolicy()
        tracker.set_budget(INTERACTIVE, 10.0)
        assert tracker.judge(None, INTERACTIVE, 11.0)
        tracker.set_budget(INTERACTIVE, None)
        assert not tracker.judge(None, INTERACTIVE, 11.0)
        with pytest.raises(ValueError):
            tracker.set_budget(INTERACTIVE, 0.0)

    def test_report_compliance_rates(self):
        tracker = LatencyPolicy()
        for _ in range(9):
            tracker.judge(None, INTERACTIVE, 10.0)
        tracker.judge(None, INTERACTIVE, 500.0)
        tracker.judge(None, NAVIGATION, 50.0)
        report = tracker.report()
        assert report.total_interactions == 11
        assert report.total_violations == 1
        assert report.for_class(INTERACTIVE).compliance == pytest.approx(0.9)
        assert report.for_class(NAVIGATION).compliance == 1.0
        assert report.for_class(BATCH).count == 0
        assert report.for_class(BATCH).compliance == 1.0
        assert report.overall_compliance == pytest.approx(1 - 1 / 11)

    def test_report_serializes_and_renders(self):
        tracker = LatencyPolicy()
        tracker.judge(None, INTERACTIVE, 120.0)
        report = tracker.report()
        payload = report.to_dict()
        assert payload["total_violations"] == 1
        classes = {c["interaction_class"]: c for c in payload["classes"]}
        assert classes[INTERACTIVE]["violations"] == 1
        text = report.render()
        assert "interactive" in text
        assert "100ms" in text
        assert "overall:" in text

    def test_reset_clears_stats_not_budgets(self):
        tracker = LatencyPolicy()
        tracker.set_budget(INTERACTIVE, 5.0)
        tracker.judge(None, INTERACTIVE, 50.0)
        tracker.reset()
        assert tracker.report().total_interactions == 0
        assert tracker.budget(INTERACTIVE).limit_ms == 5.0


class TestInteraction:
    def test_always_accounts_even_when_tracing_disabled(self):
        assert not OBS.enabled
        with OBS.interaction("test.op", INTERACTIVE, foo=1):
            pass
        report = OBS.budgets.report()
        assert report.for_class(INTERACTIVE).count == 1
        record = OBS.querylog.records()[-1]
        assert record.route == "test.op"
        assert record.attributes["foo"] == 1
        assert record.interaction_class == INTERACTIVE
        assert record.trace_id is None  # no tracing, no trace joined

    def test_emits_tagged_span_when_tracing(self):
        OBS.configure(enabled=True)
        with OBS.interaction("test.op", NAVIGATION) as act:
            act.set_attribute("extra", 7)
        spans = OBS.tracer.recorder.spans()
        assert len(spans) == 1
        assert spans[0].name == "test.op"
        assert spans[0].attributes["interaction_class"] == NAVIGATION
        assert spans[0].attributes["extra"] == 7
        assert OBS.querylog.records()[-1].attributes["extra"] == 7

    def test_violation_dumps_flight_history(self):
        OBS.budgets.set_budget(INTERACTIVE, 0.0001)
        with OBS.interaction("test.slow", INTERACTIVE):
            sum(range(10_000))
        assert OBS.querylog.dump_count == 1
        dump = OBS.querylog.dumps()[0]
        assert dump.reason == "budget:interactive:test.slow"
        assert dump.offending is not None
        assert dump.offending.route == "test.slow"
        assert dump.offending.violated

    def test_exception_is_recorded_and_propagates(self):
        with pytest.raises(RuntimeError):
            with OBS.interaction("test.boom", INTERACTIVE):
                raise RuntimeError("boom")
        assert OBS.querylog.records()[-1].error == "RuntimeError"

    def test_track_decorator(self):
        @track("test.tracked", NAVIGATION)
        def work(x):
            return x * 2

        assert work(21) == 42
        report = OBS.budgets.report()
        assert report.for_class(NAVIGATION).count == 1
        assert OBS.querylog.records()[-1].route == "test.tracked"
