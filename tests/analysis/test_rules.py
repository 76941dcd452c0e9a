"""Per-rule fixture tests: each rule has a demonstrated true positive
and at least one near-miss it stays quiet on."""

from pathlib import Path

from repro.analysis import run_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_rule(rule_id: str, filename: str):
    return run_paths([FIXTURES / filename], root=FIXTURES,
                     rule_ids=[rule_id])


class TestGuardedBy:
    def test_true_positive(self):
        result = run_rule("RPA001", "rpa001_guarded.py")
        symbols = [f.symbol for f in result.findings]
        assert symbols == ["Leaky.peek._items"]

    def test_near_misses(self):
        result = run_rule("RPA001", "rpa001_guarded.py")
        quiet = {"Leaky.add", "Leaky.size", "Leaky._drain_locked",
                 "Unannotated.peek"}
        assert not any(
            f.symbol.rsplit(".", 1)[0] in quiet for f in result.findings
        )


class TestLockOrder:
    def test_true_positive(self):
        result = run_rule("RPA002", "rpa002_order.py")
        edges = {f.symbol.split(":", 1)[1] for f in result.findings}
        assert ("rpa002_order.lock_a->rpa002_order.lock_b" in edges
                and "rpa002_order.lock_b->rpa002_order.lock_a" in edges)

    def test_near_miss(self):
        result = run_rule("RPA002", "rpa002_order.py")
        assert not any("lock_c" in f.symbol for f in result.findings)


class TestObsFastPath:
    def test_true_positive(self):
        result = run_rule("RPA003", "rpa003_hotpath.py")
        symbols = {f.symbol for f in result.findings}
        assert symbols == {"UnguardedOperator.__next__"}

    def test_near_misses(self):
        result = run_rule("RPA003", "rpa003_hotpath.py")
        quiet = {"GuardedOperator", "EarlyExitOperator",
                 "LocalFlagOperator", "setup_metrics"}
        assert not any(
            f.symbol.split(".")[0] in quiet for f in result.findings
        )


class TestEnvRegistry:
    def test_true_positives(self):
        result = run_rule("RPA004", "rpa004_env.py")
        snippets = [f.snippet for f in result.findings]
        assert len(result.findings) == 2
        assert any("os.environ" in s for s in snippets)
        assert any("environ.get(\"REPRO_PROFILE\")" in s for s in snippets)

    def test_near_miss(self):
        result = run_rule("RPA004", "rpa004_env.py")
        assert not any("os.path" in f.snippet for f in result.findings)

    def test_registry_module_is_exempt(self):
        src = Path(__file__).resolve().parents[2] / "src"
        result = run_paths([src / "repro" / "env.py"], root=src,
                           rule_ids=["RPA004"])
        assert result.findings == []


class TestSwallowRouting:
    def test_true_positives(self):
        result = run_rule("RPA005", "rpa005_swallow.py")
        symbols = sorted(f.symbol for f in result.findings)
        assert symbols == ["constant_fallback", "swallow"]

    def test_near_misses(self):
        result = run_rule("RPA005", "rpa005_swallow.py")
        quiet = {"counted", "marked", "control_flow"}
        assert not any(f.symbol in quiet for f in result.findings)


class TestThreadLifecycle:
    def test_true_positive(self):
        result = run_rule("RPA006", "rpa006_threads.py")
        symbols = [f.symbol for f in result.findings]
        assert symbols == ["orphan"]

    def test_near_misses(self):
        result = run_rule("RPA006", "rpa006_threads.py")
        quiet = {"daemonized", "fanout", "Pool.start"}
        assert not any(f.symbol in quiet for f in result.findings)


class TestBenchKeyDrift:
    def test_true_positive(self):
        result = run_rule("RPA007", "rpa007_bench.py")
        keys = [f.symbol.rsplit(":", 1)[1] for f in result.findings]
        assert keys == ["surprise_metric_ms"]

    def test_near_misses(self):
        result = run_rule("RPA007", "rpa007_bench.py")
        assert not any("known" in f.symbol for f in result.findings)

    def test_skips_without_committed_baseline(self, tmp_path):
        source = (FIXTURES / "rpa007_bench.py").read_text()
        candidate = tmp_path / "rpa007_bench.py"
        candidate.write_text(source.replace("BENCH_demo", "BENCH_missing"))
        result = run_paths([candidate], root=tmp_path,
                           rule_ids=["RPA007"])
        assert result.findings == []


class TestNoqa:
    def test_escape_spellings(self):
        result = run_rule("RPA004", "noqa_case.py")
        assert [f.snippet.split(" = ")[0] for f in result.findings] == ["c"]
        suppressed = {f.snippet.split(" = ")[0] for f in result.suppressed}
        assert suppressed == {"a", "b", "d"}


def test_every_rule_has_fixture_coverage():
    """The catalog and this suite stay in lockstep: a new rule without a
    fixture true positive fails here."""
    from repro.analysis import all_rules

    covered = {"RPA001", "RPA002", "RPA003", "RPA004", "RPA005",
               "RPA006", "RPA007"}
    assert set(all_rules()) == covered
