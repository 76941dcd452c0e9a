"""Benchmark regression gating over the committed ``BENCH_*.json`` baselines.

The benchmark suite persists headline metrics (``BENCH_planner.json``,
``BENCH_obs.json``, ``BENCH_server.json``, ``BENCH_sketch.json``). This
module turns them into a contract: compare a fresh run's metrics against
the committed baseline and produce a verdict a CI job can fail on.

Metric classification (by key, heuristically — the BENCH files are flat
``{key: number}`` documents):

* **params** — run-shape fields (``entities``, ``repeats``, ``triples``,
  ``quick_mode``, …) and any non-numeric value. Timings are only
  comparable between runs with identical parameters; on mismatch every
  timing/ratio/counter comparison is *skipped* (reported, not failed).
* **timings** (``*_ms``, ``*_ns``, ``*_seconds`` …) — tolerated within
  ±20%; only slowdowns regress.
* **ratios** (``*speedup*``, ``*ratio*``, ``*overhead*``) — tolerated
  within ±20%; direction-aware (speedups must not fall, overheads must
  not rise).
* **counters** (everything else numeric, e.g. cache hit rates) — exact: a
  changed hit rate is a behaviour change, not noise. A metric the fresh
  run lacks fails.

``--quick`` is the CI mode: fresh numbers come from a different machine
than the committed baseline, so absolute timing and ratio tolerances are
floored at ±100% (a 2x slowdown still fails) and counters get a 2% band
for plan-shape jitter. Run it as::

    python -m repro.obs.regress --quick --baseline-dir .bench-baseline \\
        --output regression-report.json BENCH_planner.json BENCH_obs.json

``--output`` writes the machine-readable verdict beside the text table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

__all__ = [
    "MetricComparison",
    "FileVerdict",
    "classify_metric",
    "higher_is_better",
    "compare_documents",
    "tolerance_for",
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

# Tolerance per kind, and its floor in ``--quick`` (cross-machine) mode.
_TOLERANCE = {"timing": 0.20, "ratio": 0.20, "counter": 0.0}
_QUICK_FLOOR = {"timing": 1.0, "ratio": 1.0, "counter": 0.02}


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


def tolerance_for(kind: str, quick: bool = False) -> float:
    """The relative change a ``kind`` of metric may show (see above)."""
    base = _TOLERANCE[kind]
    return max(base, _QUICK_FLOOR[kind]) if quick else base


@dataclass(frozen=True)
class MetricComparison:
    key: str
    kind: str
    baseline: object
    fresh: object
    status: str  # ok | improved | regressed | missing | new | skipped
    change: float | None = None  # signed relative change vs baseline
    note: str = ""

    def render(self) -> str:
        change = "" if self.change is None else f" ({self.change:+.1%})"
        note = f"  [{self.note}]" if self.note else ""
        return (f"  {self.status:<10}{self.key}: "
                f"{self.baseline} -> {self.fresh}{change}{note}")


@dataclass(frozen=True)
class FileVerdict:
    name: str
    comparable: bool
    comparisons: tuple[MetricComparison, ...]
    note: str = ""

    @property
    def regressions(self) -> list[MetricComparison]:
        return [entry for entry in self.comparisons
                if entry.status in ("regressed", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> list[str]:
        note = f"  ({self.note})" if self.note else ""
        return [f"[{'PASS' if self.ok else 'FAIL'}] {self.name}{note}"] + [
            entry.render() for entry in self.comparisons
            if entry.status != "ok"
        ]


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
    key: str, kind: str, baseline: float, fresh: float, quick: bool
) -> MetricComparison:
    tolerance = tolerance_for(kind, quick)
    change = _relative_change(baseline, fresh)
    if kind == "counter":
        drift = abs(fresh) if baseline == 0 else abs(change)
        if drift > tolerance:
            return MetricComparison(key, kind, baseline, fresh, "regressed",
                                    change, "counter drifted beyond tolerance")
        return MetricComparison(key, kind, baseline, fresh, "ok", change)
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
    status = "improved" if better else "ok"
    return MetricComparison(key, kind, baseline, fresh, status, change)


def compare_documents(
    baseline: dict,
    fresh: dict,
    quick: bool = False,
    name: str = "bench",
) -> FileVerdict:
    """Compare two BENCH documents; the heart of the regression gate."""
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
            status, why = "missing", "metric absent from fresh run"
        elif key not in baseline:
            status, why = "new", "metric absent from baseline"
        elif not comparable:
            status, why = "skipped", "incomparable runs"
        else:
            comparisons.append(_compare_numeric(
                key, kind, float(baseline_value), float(fresh_value), quick
            ))
            continue
        comparisons.append(MetricComparison(
            key, kind, baseline_value, fresh_value, status, note=why,
        ))
    return FileVerdict(name, comparable, tuple(comparisons), note)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Compare fresh BENCH_*.json results against baselines.",
    )
    parser.add_argument("fresh", nargs="+",
                        help="fresh BENCH_*.json files to check")
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the baseline copies "
                             "(matched by file name)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: floor tolerances for cross-machine runs")
    parser.add_argument("--output", default=None,
                        help="write the machine-readable verdict JSON here")
    options = parser.parse_args(argv)

    verdicts: list[FileVerdict] = []
    for fresh_path in options.fresh:
        name = os.path.basename(fresh_path)
        baseline_path = os.path.join(options.baseline_dir, name)
        if not os.path.exists(baseline_path):
            verdicts.append(FileVerdict(
                name, False, (),
                note=f"no baseline at {baseline_path}; nothing enforced",
            ))
            continue
        verdicts.append(compare_documents(
            _load(baseline_path), _load(fresh_path), options.quick, name
        ))
    ok = all(verdict.ok for verdict in verdicts)

    lines = [line for verdict in verdicts for line in verdict.render()]
    print("\n".join(lines + ["verdict: " + ("PASS" if ok else "FAIL")]))
    if options.output:
        document = {"ok": ok, "quick": options.quick, "files": [
            {**asdict(verdict), "ok": verdict.ok} for verdict in verdicts
        ]}
        with open(options.output, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
