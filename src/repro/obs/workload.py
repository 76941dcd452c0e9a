"""Workload intelligence over the structured query log.

``python -m repro.obs.workload <paths...>`` reads query-log JSONL files
(or directories of them, as written under :envvar:`REPRO_QUERYLOG_DIR`)
and answers the questions a single trace cannot:

* **top-k slow plan digests** — which *plans* (not query strings) dominate
  latency, with per-digest count / p50 / p95 / max;
* **per-tenant resource attribution** — queries, latency, store lookups,
  scan rows, and solutions per tenant, the accounting ROADMAP's sharding
  work sizes itself from;
* **estimate drift** — the actual/estimated cardinality ratio
  distribution per digest and per ``(predicate, mask)``, measured from
  *leading* scans only (the ones whose actual row count is directly
  comparable to the planner's unconditioned estimate);
* **plan regressions** — digests whose recent latency shifted against
  their own earlier history (same plan, slower now).

A store on sorted runs is planned from exact counts, so its leading scans
read 1.0; what the drift table shows is how far the uniformity guesses are
off on the sources planned from a statistics snapshot (paged, federated,
remote) — the planner's q-error feed.

The analyzer is intentionally dependency-free and offline: it only parses
JSONL, so it runs over logs scraped from a live server, captured in CI, or
replayed from an archive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Iterable, Sequence

from .querylog import QueryRecord

__all__ = [
    "WorkloadReport",
    "analyze",
    "drift_observations",
    "load_records",
    "main",
]

# A drift median is marked as a misestimate when it is off by a margin
# no estimator noise explains, in either direction.
DEFAULT_SIGNIFICANCE = 1.5

# A digest is flagged as regressed when the median latency of its later
# half exceeds threshold x the median of its earlier half.
DEFAULT_REGRESSION_THRESHOLD = 1.5
MIN_REGRESSION_SAMPLES = 6


def load_records(paths: Iterable[str]) -> list[QueryRecord]:
    """Parse query-log JSONL from files and/or directories of ``*.jsonl``.

    Records are returned in workload order (timestamp, then sequence).
    Unparseable lines are skipped — a live mirror's last line may be
    mid-write.
    """
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            )
        else:
            files.append(path)
    records: list[QueryRecord] = []
    for file_path in files:
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(QueryRecord.from_dict(json.loads(line)))
                    except (ValueError, TypeError):
                        # repro: swallow(offline analyzer skips
                        # malformed JSONL lines by design)
                        continue
        except OSError:
            # repro: swallow(offline analyzer skips unreadable mirror
            # files; a live writer may still hold them)
            continue
    records.sort(key=lambda record: (record.ts, record.sequence))
    return records


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample: the
    ``ceil(fraction * n)``-th smallest (float noise in the product shaved,
    so 0.95 x 20 is rank 19, not 20)."""
    if not ordered:
        return 0.0
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def drift_observations(
    records: Iterable[QueryRecord],
) -> dict[str, list[float]]:
    """Actual/estimated ratios per ``<predicate>|<mask>`` key.

    Only leading scans with a positive estimate contribute: inner scans
    run conditioned on outer rows, where the estimate measures a different
    quantity, and a zero estimate has no meaningful ratio.
    """
    ratios: dict[str, list[float]] = {}
    for record in records:
        if record.cache_hit:
            continue
        for scan in record.scans:
            if not scan.leading:
                continue
            estimated = scan.estimated
            if estimated is None or estimated <= 0:
                continue
            key = f"{scan.predicate or '*'}|{scan.mask}"
            ratios.setdefault(key, []).append(scan.actual / estimated)
    return ratios


class WorkloadReport:
    """The analyzer's result: attribution, slow plans, drift, regressions."""

    def __init__(
        self,
        records: list[QueryRecord],
        top: int = 10,
        significance: float = DEFAULT_SIGNIFICANCE,
        regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    ) -> None:
        self.records = records
        self.top = top
        self.significance = significance
        self.regression_threshold = regression_threshold

    # -- aggregations ------------------------------------------------------

    def by_tenant(self) -> dict[str, dict[str, float]]:
        """Resource attribution per tenant (``-`` = unattributed)."""
        out: dict[str, dict[str, float]] = {}
        for record in self.records:
            row = out.setdefault(record.tenant or "-", {
                "queries": 0, "cache_hits": 0, "approximate": 0,
                "latency_ms": 0.0,
                "store_lookups": 0, "scan_rows": 0, "solutions": 0,
            })
            row["queries"] += 1
            row["cache_hits"] += int(record.cache_hit)
            # answers computed from a sample (the shed tier's one record
            # per answer names it in its strategy), per tenant: how often
            # each tenant's traffic rode the degraded-mode contract
            row["approximate"] += int(record.strategy.endswith("+sample"))
            row["latency_ms"] += record.latency_ms
            row["store_lookups"] += record.store_lookups
            row["scan_rows"] += record.scan_rows
            row["solutions"] += record.solutions
        for row in out.values():
            row["latency_ms"] = round(row["latency_ms"], 3)
        return dict(sorted(
            out.items(), key=lambda item: -item[1]["latency_ms"]
        ))

    def slow_digests(self, k: int | None = None) -> list[dict[str, object]]:
        """Top-k plan digests by total latency, with their distribution."""
        groups: dict[str, list[QueryRecord]] = {}
        for record in self.records:
            groups.setdefault(record.digest or "-", []).append(record)
        rows = []
        for digest, group in groups.items():
            latencies = sorted(r.latency_ms for r in group)
            # Prefer an executed record for form/strategy: a hit only knows
            # it was served "cached", not how the plan runs.
            sample = next(
                (r for r in group if not r.cache_hit), group[-1]
            )
            rows.append({
                "digest": digest,
                "count": len(group),
                "total_ms": round(sum(latencies), 3),
                "p50_ms": round(_percentile(latencies, 0.50), 3),
                "p95_ms": round(_percentile(latencies, 0.95), 3),
                "max_ms": round(latencies[-1], 3),
                "form": sample.form,
                "strategy": sample.strategy,
                "cache_hits": sum(1 for r in group if r.cache_hit),
            })
        rows.sort(key=lambda row: -float(row["total_ms"]))
        return rows[: (self.top if k is None else k)]

    def drift(self) -> dict[str, dict[str, float]]:
        """Ratio distribution (actual/est) per ``<predicate>|<mask>``."""
        out: dict[str, dict[str, float]] = {}
        for key, ratios in sorted(drift_observations(self.records).items()):
            ordered = sorted(ratios)
            out[key] = {
                "observations": len(ordered),
                "median": round(statistics.median(ordered), 4),
                "p95": round(_percentile(ordered, 0.95), 4),
                "min": round(ordered[0], 4),
                "max": round(ordered[-1], 4),
            }
        return out

    def digest_drift(self) -> dict[str, dict[str, float]]:
        """Per-digest leading-scan ratio summary (which *plans* run on
        wrong estimates, complementing the per-predicate view)."""
        ratios: dict[str, list[float]] = {}
        for record in self.records:
            if record.cache_hit or record.digest is None:
                continue
            for scan in record.scans:
                if scan.leading and scan.estimated:
                    ratios.setdefault(record.digest, []).append(
                        scan.actual / scan.estimated
                    )
        return {
            digest: {
                "observations": len(values),
                "median": round(statistics.median(values), 4),
                "max": round(max(values), 4),
            }
            for digest, values in sorted(ratios.items())
        }

    def regressions(self) -> list[dict[str, object]]:
        """Digests whose recent latency shifted vs their own history.

        For each digest with enough samples the (chronological) series is
        split at its midpoint; a late-half median above ``threshold`` x the
        early-half median flags the digest. Cache hits are excluded — a
        cold cache would otherwise read as a regression.
        """
        series: dict[str, list[float]] = {}
        for record in self.records:  # records are in workload order
            if record.cache_hit or record.digest is None:
                continue
            series.setdefault(record.digest, []).append(record.latency_ms)
        flagged = []
        for digest, latencies in sorted(series.items()):
            if len(latencies) < MIN_REGRESSION_SAMPLES:
                continue
            half = len(latencies) // 2
            early = statistics.median(latencies[:half])
            late = statistics.median(latencies[half:])
            if early > 0 and late / early >= self.regression_threshold:
                flagged.append({
                    "digest": digest,
                    "samples": len(latencies),
                    "early_p50_ms": round(early, 3),
                    "late_p50_ms": round(late, 3),
                    "ratio": round(late / early, 3),
                })
        flagged.sort(key=lambda row: -float(row["ratio"]))
        return flagged

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "records": len(self.records),
            "trace_ids": sorted({
                record.trace_id for record in self.records
                if record.trace_id
            }),
            "by_tenant": self.by_tenant(),
            "slow_digests": self.slow_digests(),
            "drift": self.drift(),
            "digest_drift": self.digest_drift(),
            "regressions": self.regressions(),
        }

    def render(self) -> str:
        lines = [f"workload: {len(self.records)} records"]
        lines.append("\nper-tenant attribution")
        lines.append(
            f"  {'tenant':<16} {'queries':>8} {'hits':>6} {'approx':>7} "
            f"{'latency_ms':>12} {'lookups':>9} {'scan_rows':>10}"
        )
        for tenant, row in self.by_tenant().items():
            lines.append(
                f"  {tenant:<16} {row['queries']:>8} {row['cache_hits']:>6} "
                f"{row['approximate']:>7} "
                f"{row['latency_ms']:>12.2f} {row['store_lookups']:>9} "
                f"{row['scan_rows']:>10}"
            )
        lines.append("\nslowest plan digests (by total latency)")
        lines.append(
            f"  {'digest':<14} {'count':>6} {'p50_ms':>9} {'p95_ms':>9} "
            f"{'total_ms':>10}  strategy"
        )
        for row in self.slow_digests():
            digest = str(row["digest"])[:12]
            lines.append(
                f"  {digest:<14} {row['count']:>6} {row['p50_ms']:>9.2f} "
                f"{row['p95_ms']:>9.2f} {row['total_ms']:>10.2f}  "
                f"{row['strategy']}"
            )
        drift = self.drift()
        if drift:
            lines.append("\nestimate drift (actual/est, leading scans)")
            for key, row in drift.items():
                marker = (
                    "  <-- misestimated"
                    if row["median"] >= self.significance
                    or row["median"] <= 1.0 / self.significance
                    else ""
                )
                lines.append(
                    f"  {key}: median={row['median']} p95={row['p95']} "
                    f"n={row['observations']}{marker}"
                )
        regressions = self.regressions()
        if regressions:
            lines.append("\nplan regressions (same digest, slower now)")
            for row in regressions:
                lines.append(
                    f"  {str(row['digest'])[:12]}: "
                    f"{row['early_p50_ms']}ms -> {row['late_p50_ms']}ms "
                    f"({row['ratio']}x over {row['samples']} runs)"
                )
        return "\n".join(lines)


def analyze(
    records: list[QueryRecord],
    top: int = 10,
    significance: float = DEFAULT_SIGNIFICANCE,
    regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> WorkloadReport:
    return WorkloadReport(
        records,
        top=top,
        significance=significance,
        regression_threshold=regression_threshold,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.workload",
        description="Analyze query-log JSONL: slow plans, tenant "
                    "attribution, estimate drift, regressions.",
    )
    parser.add_argument(
        "paths", nargs="+",
        help="query-log JSONL files or directories (REPRO_QUERYLOG_DIR)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full report as JSON")
    parser.add_argument("--top", type=int, default=10,
                        help="slow-digest rows to keep (default 10)")
    parser.add_argument("--tenant", default=None,
                        help="restrict the report to one tenant")
    parser.add_argument("--since", type=float, default=None,
                        help="drop records before this UNIX timestamp")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_REGRESSION_THRESHOLD,
                        help="late/early latency ratio flagged as a "
                             "regression (default 1.5)")
    options = parser.parse_args(argv)

    records = load_records(options.paths)
    if options.tenant is not None:
        records = [r for r in records if r.tenant == options.tenant]
    if options.since is not None:
        records = [r for r in records if r.ts >= options.since]

    report = analyze(
        records,
        top=options.top,
        regression_threshold=options.threshold,
    )
    if options.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if records else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
