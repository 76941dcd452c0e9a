"""Benchmark regression gating: classification, tolerance, CLI verdicts."""

import json

import pytest

from repro.obs.regress import (
    classify_metric,
    compare_documents,
    higher_is_better,
    main,
    tolerance_for,
)


class TestClassification:
    @pytest.mark.parametrize("key,value,kind", [
        ("experiment", "C13-planner", "param"),
        ("triples", 30000, "param"),
        ("quick_mode", True, "param"),
        ("seed", 11, "param"),
        ("plan_ms_per_query", 0.4, "timing"),
        ("explain_no_analyze_seconds_per_query", 0.001, "timing"),
        ("span_overhead_ns", 1200, "timing"),
        ("planning_speedup", 3.1, "ratio"),
        ("disabled_overhead_ratio", 1.01, "ratio"),
        ("snapshot_estimator_hit_rate", 0.93, "counter"),
        ("guard_evals_per_query", 12, "counter"),
        ("plans_considered", 42, "counter"),
        ("per_level", {"0": 1}, "nested"),
    ])
    def test_kinds(self, key, value, kind):
        assert classify_metric(key, value) == kind

    def test_direction(self):
        assert higher_is_better("planning_speedup")
        assert higher_is_better("rows_per_second")
        assert higher_is_better("querylog_records_per_s")
        assert not higher_is_better("plan_ms_per_query")
        assert not higher_is_better("disabled_overhead_ratio")

    def test_per_s_throughput_falls_only_on_drop(self):
        # "_per_s" ends with the "_s" timing suffix, but direction must be
        # higher-is-better: a throughput drop regresses, a rise improves.
        baseline = {"querylog_records_per_s": 1000.0}
        faster = compare_documents(baseline, {"querylog_records_per_s": 2000.0})
        slower = compare_documents(baseline, {"querylog_records_per_s": 400.0})
        assert faster.comparisons[0].status == "improved"
        assert slower.comparisons[0].status == "regressed"


class TestCompare:
    BASELINE = {
        "experiment": "C13", "triples": 30000,
        "plan_ms": 2.0, "speedup": 3.0, "hit_rate": 0.9,
    }

    def test_synthetic_25pct_timing_regression_is_flagged(self):
        fresh = dict(self.BASELINE, plan_ms=2.5)  # +25% > ±20% default
        verdict = compare_documents(self.BASELINE, fresh)
        assert not verdict.ok
        (regression,) = verdict.regressions
        assert regression.key == "plan_ms"
        assert regression.status == "regressed"
        assert regression.change == pytest.approx(0.25)

    def test_10pct_jitter_passes(self):
        fresh = dict(self.BASELINE, plan_ms=2.2)
        verdict = compare_documents(self.BASELINE, fresh)
        assert verdict.ok

    def test_timing_improvement_is_reported_not_failed(self):
        fresh = dict(self.BASELINE, plan_ms=1.0)
        verdict = compare_documents(self.BASELINE, fresh)
        assert verdict.ok
        statuses = {c.key: c.status for c in verdict.comparisons}
        assert statuses["plan_ms"] == "improved"

    def test_speedup_falling_regresses(self):
        fresh = dict(self.BASELINE, speedup=2.0)  # -33% on higher-is-better
        verdict = compare_documents(self.BASELINE, fresh)
        assert [c.key for c in verdict.regressions] == ["speedup"]

    def test_counters_are_exact_by_default(self):
        fresh = dict(self.BASELINE, hit_rate=0.89)
        verdict = compare_documents(self.BASELINE, fresh)
        assert [c.key for c in verdict.regressions] == ["hit_rate"]

    def test_param_mismatch_skips_instead_of_lying(self):
        fresh = dict(self.BASELINE, triples=60000, plan_ms=9.0)
        verdict = compare_documents(self.BASELINE, fresh)
        assert verdict.ok  # nothing enforced...
        assert not verdict.comparable  # ...and that is stated
        assert "triples" in verdict.note
        assert all(c.status == "skipped" for c in verdict.comparisons)

    def test_missing_metric_fails(self):
        fresh = {k: v for k, v in self.BASELINE.items() if k != "plan_ms"}
        verdict = compare_documents(self.BASELINE, fresh)
        assert [(c.key, c.status) for c in verdict.regressions] == [
            ("plan_ms", "missing")
        ]

    def test_new_metric_is_informational(self):
        fresh = dict(self.BASELINE, extra_ms=1.0)
        verdict = compare_documents(self.BASELINE, fresh)
        assert verdict.ok
        statuses = {c.key: c.status for c in verdict.comparisons}
        assert statuses["extra_ms"] == "new"

    def test_quick_mode_floors_tolerances(self):
        assert tolerance_for("timing", quick=True) == 1.0
        assert tolerance_for("ratio", quick=True) == 1.0
        assert tolerance_for("counter", quick=True) == 0.02
        fresh = dict(self.BASELINE, plan_ms=3.9, hit_rate=0.91)  # <2x, <2%
        assert compare_documents(self.BASELINE, fresh, quick=True).ok
        fresh["plan_ms"] = 4.5  # 2.25x still fails in quick mode
        assert not compare_documents(self.BASELINE, fresh, quick=True).ok

    def test_zero_baseline_counter(self):
        verdict = compare_documents({"misses": 0}, {"misses": 0})
        assert verdict.ok
        assert not compare_documents({"misses": 0}, {"misses": 3}).ok


class TestCli:
    def write(self, path, document):
        path.write_text(json.dumps(document))

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        baseline_dir.mkdir()
        self.write(baseline_dir / "BENCH_x.json", {"plan_ms": 2.0})
        fresh = tmp_path / "BENCH_x.json"

        self.write(fresh, {"plan_ms": 2.1})
        assert main([str(fresh), "--baseline-dir", str(baseline_dir)]) == 0
        assert "PASS" in capsys.readouterr().out

        self.write(fresh, {"plan_ms": 9.0})
        assert main([str(fresh), "--baseline-dir", str(baseline_dir)]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out and "FAIL" in out

    def test_missing_baseline_is_not_enforced(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        baseline_dir.mkdir()
        fresh = tmp_path / "BENCH_new.json"
        self.write(fresh, {"plan_ms": 2.0})
        assert main([str(fresh), "--baseline-dir", str(baseline_dir)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_output_json(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        baseline_dir.mkdir()
        self.write(baseline_dir / "BENCH_x.json", {"plan_ms": 2.0})
        fresh = tmp_path / "BENCH_x.json"
        self.write(fresh, {"plan_ms": 2.6})
        report = tmp_path / "verdict.json"
        code = main([
            str(fresh), "--baseline-dir", str(baseline_dir),
            "--output", str(report),
        ])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["ok"] is False
        assert payload["files"][0]["comparisons"][0]["status"] == "regressed"

    def test_real_committed_baselines_pass_against_themselves(
        self, tmp_path, capsys
    ):
        """The shape the CI job runs: identical docs must always pass."""
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        benches = [repo / f"BENCH_{name}.json"
                   for name in ("planner", "obs", "server", "sketch")]
        assert all(path.exists() for path in benches)
        code = main([
            *[str(path) for path in benches],
            "--baseline-dir", str(repo), "--quick",
        ])
        capsys.readouterr()
        assert code == 0
