"""One request's story: ``python -m repro.obs.why <trace-id> <paths...>``.

Reads query-log JSONL (files, or directories of them as written under
:envvar:`REPRO_QUERYLOG_DIR`) and prints every record whose trace id is the
one given, across services — a federation coordinator's trace id shows its
member servers' requests too. Each record is one request: its route,
status, tenant, class and latency; the stages it went through; the shed
tier and the shedder's inputs; the cache outcome, plan digest, form and
strategy; the scans. The same records live behind ``GET
/debug/queries?trace=<id>`` on a running server. Exits 1 when none match.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .querylog import QueryRecord
from .workload import load_records

__all__ = ["render", "main"]


def render(record: QueryRecord) -> str:
    """The record as a block of text: a head line, then one line per fact."""
    status = "-" if record.status is None else record.status
    lines = [
        f"{record.trace_id}  {record.service or '-'}  {record.route or '-'}"
        f"  {status}  tenant={record.tenant or '-'}"
        f" {record.interaction_class or '-'}  {record.latency_ms:.2f} ms"
    ]
    if record.stages:
        lines.append("  stages  " + " · ".join(
            f"{stage} {ms:.2f}" for stage, ms in record.stages))
    if record.tier is not None:
        shed = record.shed
        inputs = "" if shed is None else (
            f"  (shed p95 {shed['p95_ms']:.1f} ms over {shed['n']},"
            f" burn {shed['burn']:.2f}, peak {shed['peak_burn']:.2f})")
        lines.append(f"  tier    {record.tier}{inputs}")
    if record.digest is not None:
        partial = "" if record.complete else "  incomplete"
        lines.append(
            f"  cache   {'hit' if record.cache_hit else 'miss'}"
            f"  {record.digest[:12]}…  {record.form}  {record.strategy}"
            f"{partial}")
    for scan in record.scans:
        est = "-" if scan.estimated is None else f"{scan.estimated:g}"
        lines.append(
            f"  scans   {scan.predicate or '*'} {scan.mask} est={est}"
            f" actual={scan.actual} leading={'yes' if scan.leading else 'no'}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 2:
        print("usage: python -m repro.obs.why <trace-id> <JSONL files or "
              "directories>...", file=sys.stderr)
        return 2
    trace_id = args[0].strip().lower()
    found = [record for record in load_records(args[1:])
             if record.trace_id == trace_id]
    for record in found:
        print(render(record))
    return 0 if found else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
