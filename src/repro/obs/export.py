"""Telemetry exporters: JSON-lines, span trees, stitching, Prometheus.

Five consumers, five formats:

* :func:`spans_to_jsonl` — flat one-object-per-line dump (span ids +
  parent ids, plus wire ``trace_id``/``span_id``/``parent_span_id``) for
  offline analysis;
* :func:`render_span_tree` — the human-readable tree the README quickstart
  shows, durations annotated per node and wire hops marked;
* :func:`stitch_records` / :func:`stitch_jsonl` — merge per-process JSONL
  exports into one cross-process :class:`~repro.obs.trace.Span` tree,
  linking a remote process's continuation spans under the caller's
  wire-call span by span id;
* :func:`render_prometheus` — the metrics registry in Prometheus text
  exposition format (the ``/metrics`` server surface);
* :func:`merge_into_bench` — folds a metrics/span summary into the
  ``BENCH_*.json`` files the benchmark suite writes, so perf PRs can diff
  telemetry alongside timings.
"""

from __future__ import annotations

import json
import os
import re
from typing import IO, Iterable

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "span_to_dicts",
    "spans_to_jsonl",
    "render_span_tree",
    "stitch_records",
    "stitch_jsonl",
    "render_prometheus",
    "telemetry_payload",
    "merge_into_bench",
]


def span_to_dicts(span: Span, _parent_id: int | None = None,
                  _counter: list[int] | None = None,
                  _parent_span_id: str | None = None,
                  _trace_id: str | None = None) -> list[dict]:
    """Flatten one span tree into dicts with ``id``/``parent_id`` links.

    Each record also carries the wire identity — ``trace_id`` (inherited
    down the tree when a child was attached post-hoc, e.g. operator
    spans), ``span_id``, and ``parent_span_id`` (the in-tree parent's span
    id, or for a remote-continuation root the caller's wire-call span id)
    — which is what :func:`stitch_records` links cross-process trees by.
    """
    counter = _counter if _counter is not None else [0]
    counter[0] += 1
    local_id = counter[0]
    trace_id = span.trace_id or _trace_id
    parent_span_id = _parent_span_id or span.remote_parent_id
    record = {
        "id": local_id,
        "parent_id": _parent_id,
        "name": span.name,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns,
        "duration_ms": round(span.duration_ms, 6),
        "span_id": span.span_id,
    }
    if trace_id is not None:
        record["trace_id"] = trace_id
    if parent_span_id is not None:
        record["parent_span_id"] = parent_span_id
    if span.attributes:
        record["attributes"] = dict(span.attributes)
    if span.error is not None:
        record["error"] = span.error
    records = [record]
    for child in span.children:
        records.extend(span_to_dicts(child, local_id, counter,
                                     span.span_id, trace_id))
    return records


def spans_to_jsonl(spans: Iterable[Span], fh: IO[str] | None = None) -> str:
    """Serialize span trees as JSON lines; writes to ``fh`` when given."""
    lines = []
    counter = [0]
    for span in spans:
        for record in span_to_dicts(span, None, counter):
            lines.append(json.dumps(record, default=str, sort_keys=True))
    text = "\n".join(lines) + ("\n" if lines else "")
    if fh is not None:
        fh.write(text)
    return text


def render_span_tree(span: Span, indent: int = 0,
                     parent_service: str | None = None) -> str:
    """Indented text rendering of one span tree with durations.

    Server spans carry ``service=repro-server:<port>``; a child whose
    service differs from the one its parent has or inherits gets a
    ``[wire -> service]`` marker, so a stitched federated query reads as
    one tree with remote time attributed to the endpoint that spent it.
    Untagged spans inherit their parent's service: operator spans inside
    one process never read as hops.
    """
    attributes = dict(span.attributes)
    service = attributes.pop("service", None)
    service = str(service) if service is not None else parent_service
    hop = ""
    if parent_service is not None and service != parent_service:
        hop = f"  [wire -> {service}]"
    attrs = ""
    if attributes:
        rendered = " ".join(f"{k}={v}" for k, v in attributes.items())
        attrs = f"  [{rendered}]"
    error = f"  !{span.error}" if span.error else ""
    line = (f"{'  ' * indent}{span.name}  "
            f"{span.duration_ms:.3f}ms{hop}{attrs}{error}")
    parts = [line]
    parts.extend(render_span_tree(child, indent + 1, service or "local")
                 for child in span.children)
    return "\n".join(parts)


def stitch_records(records: Iterable[dict]) -> list[Span]:
    """Merge span records from any number of processes into linked trees.

    Records are linked by ``span_id`` → ``parent_span_id``: within one
    export that reproduces the local tree; across exports a remote
    process's continuation span (opened with ``remote_parent``) carries
    the caller's wire-call span id as its ``parent_span_id`` and therefore
    lands *under* that wire-call span — one tree per trace, wire hops
    included. Each node is a finished :class:`Span` keeping the record's
    ids, timing, error and attributes. Duplicate span ids (overlapping
    exports) keep the first record seen; orphans (parent not exported)
    become roots. Returns the roots in input order.
    """
    nodes: dict[str, Span] = {}
    parents: list[tuple[Span, object]] = []
    for record in records:
        span_id = str(record.get("span_id", "")) or f"_anon{len(nodes)}"
        if span_id in nodes:
            continue
        span = Span.manual(str(record.get("name", "")),
                           int(record.get("duration_ns", 0)))
        span.start_ns = int(record.get("start_ns", span.start_ns))
        span.end_ns = span.start_ns + span.duration_ns
        attributes = record.get("attributes")
        span.attributes = dict(attributes) if isinstance(attributes,
                                                         dict) else {}
        span.span_id, span.trace_id = span_id, record.get("trace_id")
        span.error = record.get("error")
        nodes[span_id] = span
        parents.append((span, record.get("parent_span_id")))
    roots: list[Span] = []
    for span, parent_id in parents:
        parent = nodes.get(str(parent_id)) if parent_id is not None else None
        if parent is not None and parent is not span:
            parent.add_child(span)
        else:
            span.remote_parent_id = parent_id
            roots.append(span)
    return roots


def stitch_jsonl(*texts: str) -> list[Span]:
    """Stitch one or more JSONL exports (one per process) into trees."""
    records = []
    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return stitch_records(records)


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(labels, extra: dict[str, str] | None = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prom_name(str(k))}="{_prom_label_value(str(v))}"'
        for k, v in pairs
    )
    return "{" + rendered + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format (0.0.4).

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``. Metric
    names are sanitized (``obs.errors`` → ``obs_errors``); one ``# TYPE``
    line per family, families sorted by name for a stable scrape diff.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    for metric in registry:
        family = _prom_name(metric.name)
        if isinstance(metric, Counter):
            kind = "counter"
            # the TYPE line must name the family as scraped: with _total
            family = f"{family}_total"
            samples = [
                f"{family}{_prom_labels(metric.labels)}"
                f" {metric.value}"
            ]
        elif isinstance(metric, Gauge):
            kind = "gauge"
            samples = [
                f"{family}{_prom_labels(metric.labels)} {metric.value:g}"
            ]
        elif isinstance(metric, Histogram):
            kind = "histogram"
            samples = []
            cumulative = 0
            for bound, count in metric.bucket_counts():
                cumulative += count
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                samples.append(
                    f"{family}_bucket"
                    f"{_prom_labels(metric.labels, {'le': le})}"
                    f" {cumulative}"
                )
            samples.append(
                f"{family}_sum{_prom_labels(metric.labels)} {metric.sum:g}"
            )
            samples.append(
                f"{family}_count{_prom_labels(metric.labels)} {metric.count}"
            )
        else:  # pragma: no cover - registry only creates the three kinds
            continue
        entry = families.setdefault(family, (kind, []))
        entry[1].extend(samples)
    lines: list[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")


def telemetry_payload(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> dict:
    """The merged telemetry block: metrics snapshot + per-span-name rollup."""
    payload: dict[str, object] = {}
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if tracer is not None:
        rollup: dict[str, dict[str, float]] = {}
        for root in tracer.recorder.spans():
            for span in root.walk():
                entry = rollup.setdefault(
                    span.name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
                )
                entry["count"] += 1
                entry["total_ms"] += span.duration_ms
                entry["max_ms"] = max(entry["max_ms"], span.duration_ms)
        payload["spans"] = {
            name: {
                "count": entry["count"],
                "total_ms": round(entry["total_ms"], 6),
                "max_ms": round(entry["max_ms"], 6),
            }
            for name, entry in sorted(rollup.items())
        }
        if tracer.recorder.dropped:
            payload["spans_dropped"] = tracer.recorder.dropped
    return payload


def merge_into_bench(
    path: str | os.PathLike,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    key: str = "telemetry",
) -> dict:
    """Fold a telemetry payload into an existing ``BENCH_*.json`` file.

    Creates the file (as ``{key: payload}``) if missing; otherwise reads
    the benchmark results dict, sets ``result[key]``, and writes it back.
    Returns the merged document.
    """
    payload = telemetry_payload(registry, tracer)
    document: dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        document = loaded
    document[key] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, default=str)
        fh.write("\n")
    return document
