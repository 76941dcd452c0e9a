"""Benchmark regression gating over the committed ``BENCH_*.json`` baselines.

The benchmark suite persists headline metrics (``BENCH_planner.json``,
``BENCH_obs.json``); until now those files were a trajectory nobody
enforced. This module turns them into a contract: load a baseline, compare
a fresh run's metrics against it with configurable tolerance, and produce a
machine-readable verdict a CI job can fail on.

Metric classification (by key, heuristically — the BENCH files are flat
``{key: number}`` documents):

* **params** — run-shape fields (``entities``, ``repeats``, ``triples``,
  ``quick_mode``, …) and any non-numeric value. Timings are only
  comparable between runs with identical parameters; on mismatch every
  timing/ratio/counter comparison is *skipped* (reported, not failed).
* **timings** (``*_ms``, ``*_ns``, ``*_seconds`` …) — tolerated within
  ``timing_tolerance`` (default ±20%); only slowdowns regress.
* **ratios** (``*speedup*``, ``*ratio*``, ``*overhead*``) — tolerated
  within ``ratio_tolerance``; direction-aware (speedups must not fall,
  overheads must not rise).
* **counters** (everything else numeric, e.g. cache hit rates) — exact by
  default (``counter_tolerance = 0``): a changed hit rate is a behaviour
  change, not noise.

``--quick`` is the CI mode: fresh numbers come from a different machine
than the committed baseline, so absolute timing and ratio tolerances are
floored at ±100% (a 2x slowdown still fails) and counters get a 2% band
for plan-shape jitter. Run it as::

    python -m repro.obs.regress --quick --baseline-dir .bench-baseline \\
        BENCH_planner.json BENCH_obs.json

With no fresh files named, the CLI discovers every ``BENCH_*.json`` in
the working directory (``BENCH_planner.json``, ``BENCH_obs.json``,
``BENCH_server.json``, …). ``--json`` switches stdout to the
machine-readable verdict document (the same shape ``--output`` writes),
for toolchains that would otherwise have to parse the text table.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "RegressConfig",
    "MetricComparison",
    "FileVerdict",
    "RegressionVerdict",
    "classify_metric",
    "higher_is_better",
    "compare_documents",
    "compare_files",
    "main",
]

PARAM_KEYS = frozenset({
    "experiment", "entities", "repeats", "triples", "quick_mode",
    "plans_per_planner", "seed",
})

_TIMING_SUFFIXES = ("_ms", "_ns", "_us", "_s", "_seconds")
_TIMING_MARKERS = ("_ms_", "_ns_", "seconds_per", "_seconds_")
_RATIO_MARKERS = ("speedup", "ratio", "overhead")
_RATE_MARKERS = ("_rate", "hit_rate", "accuracy", "compliance")


def classify_metric(key: str, value: object) -> str:
    """``param`` | ``timing`` | ``ratio`` | ``counter`` | ``nested``."""
    if isinstance(value, (dict, list)):
        return "nested"
    if key in PARAM_KEYS or isinstance(value, (str, bool)) or value is None:
        return "param"
    if not isinstance(value, (int, float)):
        return "param"
    lowered = key.lower()
    if any(marker in lowered for marker in _RATE_MARKERS):
        return "counter"
    # timing before ratio: "span_overhead_ns" is a duration, not a ratio
    if lowered.endswith(_TIMING_SUFFIXES) or any(
        marker in lowered for marker in _TIMING_MARKERS
    ):
        return "timing"
    if any(marker in lowered for marker in _RATIO_MARKERS):
        return "ratio"
    return "counter"


def higher_is_better(key: str) -> bool:
    """Direction of goodness for timing/ratio metrics.

    Speedups, rates, and throughputs should not fall; times, overheads,
    and generic ratios (binding blowup, enabled/disabled cost) should not
    rise.
    """
    lowered = key.lower()
    return any(
        marker in lowered
        for marker in ("speedup", "throughput", "_qps", "per_second",
                       "_per_s", "rate")
    )


@dataclass(frozen=True)
class RegressConfig:
    timing_tolerance: float = 0.20
    ratio_tolerance: float = 0.20
    counter_tolerance: float = 0.0
    quick: bool = False
    allow_missing: bool = False

    def tolerance_for(self, kind: str) -> float:
        if kind == "timing":
            base = self.timing_tolerance
            return max(base, 1.0) if self.quick else base
        if kind == "ratio":
            base = self.ratio_tolerance
            return max(base, 1.0) if self.quick else base
        base = self.counter_tolerance
        return max(base, 0.02) if self.quick else base


@dataclass(frozen=True)
class MetricComparison:
    key: str
    kind: str
    baseline: object
    fresh: object
    status: str  # ok | improved | regressed | missing | new | skipped
    change: float | None = None  # signed relative change vs baseline
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")

    def to_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "key": self.key,
            "kind": self.kind,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "status": self.status,
        }
        if self.change is not None:
            record["change"] = round(self.change, 6)
        if self.note:
            record["note"] = self.note
        return record


@dataclass(frozen=True)
class FileVerdict:
    name: str
    comparable: bool
    comparisons: tuple[MetricComparison, ...]
    note: str = ""

    @property
    def regressions(self) -> list[MetricComparison]:
        return [entry for entry in self.comparisons if entry.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "comparable": self.comparable,
            "ok": self.ok,
            "note": self.note,
            "comparisons": [entry.to_dict() for entry in self.comparisons],
        }


@dataclass(frozen=True)
class RegressionVerdict:
    files: tuple[FileVerdict, ...]
    config: RegressConfig = field(default_factory=RegressConfig)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.files)

    @property
    def regressions(self) -> list[MetricComparison]:
        found: list[MetricComparison] = []
        for entry in self.files:
            found.extend(entry.regressions)
        return found

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "quick": self.config.quick,
            "files": [entry.to_dict() for entry in self.files],
        }

    def render(self) -> str:
        lines = []
        for file_verdict in self.files:
            marker = "PASS" if file_verdict.ok else "FAIL"
            lines.append(f"[{marker}] {file_verdict.name}"
                         + (f"  ({file_verdict.note})" if file_verdict.note else ""))
            for entry in file_verdict.comparisons:
                if entry.status == "ok":
                    continue
                change = (
                    f" ({entry.change:+.1%})" if entry.change is not None else ""
                )
                lines.append(
                    f"  {entry.status:<10}{entry.key}: "
                    f"{entry.baseline} -> {entry.fresh}{change}"
                    + (f"  [{entry.note}]" if entry.note else "")
                )
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _params_of(document: dict) -> dict[str, object]:
    return {
        key: value
        for key, value in document.items()
        if classify_metric(key, value) == "param"
    }


def _relative_change(baseline: float, fresh: float) -> float:
    if baseline == 0:
        return 0.0 if fresh == 0 else float("inf") if fresh > 0 else float("-inf")
    return (fresh - baseline) / abs(baseline)


def _compare_numeric(
    key: str, kind: str, baseline: float, fresh: float, config: RegressConfig
) -> MetricComparison:
    tolerance = config.tolerance_for(kind)
    change = _relative_change(baseline, fresh)
    if kind == "counter":
        if baseline == 0:
            bad = abs(fresh) > tolerance
        else:
            bad = abs(change) > tolerance
        status = "regressed" if bad else "ok"
        note = "counter drifted beyond tolerance" if bad else ""
        return MetricComparison(key, kind, baseline, fresh, status,
                                change, note)
    # timing / ratio: direction-aware
    worse = change > tolerance
    better = change < -tolerance
    if higher_is_better(key):
        worse, better = better, worse
    if worse:
        return MetricComparison(
            key, kind, baseline, fresh, "regressed", change,
            f"beyond ±{tolerance:.0%} tolerance",
        )
    if better:
        return MetricComparison(key, kind, baseline, fresh, "improved", change)
    return MetricComparison(key, kind, baseline, fresh, "ok", change)


def compare_documents(
    baseline: dict,
    fresh: dict,
    config: RegressConfig | None = None,
    name: str = "bench",
) -> FileVerdict:
    """Compare two BENCH documents; the heart of the regression gate."""
    config = config or RegressConfig()
    baseline_params = _params_of(baseline)
    fresh_params = _params_of(fresh)
    mismatched = sorted(
        key
        for key in set(baseline_params) & set(fresh_params)
        if baseline_params[key] != fresh_params[key]
    )
    comparable = not mismatched
    note = (
        "" if comparable
        else "run parameters differ (" + ", ".join(mismatched) + "); "
             "metric comparisons skipped"
    )

    comparisons: list[MetricComparison] = []
    for key in sorted(set(baseline) | set(fresh)):
        baseline_value = baseline.get(key)
        fresh_value = fresh.get(key)
        kind = classify_metric(key, baseline_value if key in baseline else fresh_value)
        if kind in ("param", "nested"):
            continue
        if key not in fresh:
            status = "skipped" if config.allow_missing else "missing"
            comparisons.append(MetricComparison(
                key, kind, baseline_value, None, status,
                note="metric absent from fresh run",
            ))
            continue
        if key not in baseline:
            comparisons.append(MetricComparison(
                key, kind, None, fresh_value, "new",
                note="metric absent from baseline",
            ))
            continue
        if not comparable:
            comparisons.append(MetricComparison(
                key, kind, baseline_value, fresh_value, "skipped",
                note="incomparable runs",
            ))
            continue
        comparisons.append(_compare_numeric(
            key, kind, float(baseline_value), float(fresh_value), config
        ))
    return FileVerdict(name, comparable, tuple(comparisons), note)


def compare_files(
    baseline_path: str | os.PathLike,
    fresh_path: str | os.PathLike,
    config: RegressConfig | None = None,
) -> FileVerdict:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(fresh_path, "r", encoding="utf-8") as fh:
        fresh = json.load(fh)
    return compare_documents(
        baseline, fresh, config, name=os.path.basename(str(fresh_path))
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Compare fresh BENCH_*.json results against baselines.",
    )
    parser.add_argument("fresh", nargs="*",
                        help="fresh BENCH_*.json files to check (default: "
                             "every BENCH_*.json in the working directory)")
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the baseline copies "
                             "(matched by file name)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: floor tolerances for cross-machine runs")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable verdict JSON "
                             "instead of the text table")
    parser.add_argument("--timing-tolerance", type=float, default=0.20)
    parser.add_argument("--ratio-tolerance", type=float, default=0.20)
    parser.add_argument("--counter-tolerance", type=float, default=0.0)
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip (rather than fail) metrics missing from "
                             "the fresh run")
    parser.add_argument("--output", default=None,
                        help="write the machine-readable verdict JSON here")
    options = parser.parse_args(argv)

    config = RegressConfig(
        timing_tolerance=options.timing_tolerance,
        ratio_tolerance=options.ratio_tolerance,
        counter_tolerance=options.counter_tolerance,
        quick=options.quick,
        allow_missing=options.allow_missing,
    )
    fresh_paths = list(options.fresh)
    if not fresh_paths:
        fresh_paths = sorted(glob.glob("BENCH_*.json"))
        if not fresh_paths:
            print("no BENCH_*.json files found in the working directory",
                  file=sys.stderr)
            return 2
    verdicts: list[FileVerdict] = []
    for fresh_path in fresh_paths:
        baseline_path = os.path.join(
            options.baseline_dir, os.path.basename(fresh_path)
        )
        if not os.path.exists(baseline_path):
            verdicts.append(FileVerdict(
                os.path.basename(fresh_path), False, (),
                note=f"no baseline at {baseline_path}; nothing enforced",
            ))
            continue
        verdicts.append(compare_files(baseline_path, fresh_path, config))
    verdict = RegressionVerdict(tuple(verdicts), config)

    if options.json:
        print(json.dumps(verdict.to_dict(), indent=2))
    else:
        print(verdict.render())
    if options.output:
        with open(options.output, "w", encoding="utf-8") as fh:
            json.dump(verdict.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    sys.exit(main())
