"""Compare two result files of ``run.py --repeat N`` (``out/results.json``).

    python3 benchmarks/e2e/compare.py parent.json change.json

One row per workload, one cell per end-to-end metric: the change of the
median from the first file to the second, and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

* ``regressed`` -- worse by more than the bound;
* ``better`` -- better by more than either side's own spread (a lead, not
  a claim: a claimed gain needs ten alternating pairs);
* ``unchanged`` -- neither, and both sides repeat within the bound;
* ``unresolved`` -- a side's run-to-run spread, (max - min) / median, is
  wider than the bound (or it has a single run), so a change of the size
  the bound guards against could not be seen. Never ``unchanged``.

Exit code 1 if any cell regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _values(results: dict, workload: str, metric: str) -> list[float]:
    return [run[workload]["end_to_end"]["metrics"][metric]
            for run in results["runs"]]


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / statistics.median(values)


def cell(metric: dict, before: list[float], after: list[float]) -> tuple:
    """``(relative change, spread, verdict)`` for one metric x workload."""
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base
    worse = change if metric["better"] == "lower" else -change
    spreads = [_spread(before), _spread(after)]
    if None in spreads or max(spreads) > metric["bound"]:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "regressed"
    elif -worse > max(spreads):
        verdict = "better"
    else:
        verdict = "unchanged"
    known = [spread for spread in spreads if spread is not None]
    return change, max(known) if known else None, verdict


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    before, after = (json.loads(Path(path).read_text(encoding="utf-8"))
                     for path in argv)
    for side, results in (("first", before), ("second", after)):
        print(f"{side}: seed {results['seed']}, {results['entities']} "
              f"entities, {results['seconds']} s, "
              f"{len(results['runs'])} runs")
    regressed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        cells = []
        for metric in spec["end_to_end"]:
            change, spread, verdict = cell(
                metric, _values(before, name, metric["name"]),
                _values(after, name, metric["name"]))
            regressed = regressed or verdict == "regressed"
            shown = "n/a" if spread is None else f"{spread:.1%}"
            cells.append(f"{metric['name']} {change:+.1%} "
                         f"(spread {shown}) {verdict}")
        print(f"{name:9s} " + " | ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
