"""Experiment C14: telemetry overhead on a canary query.

The obs layer (``repro.obs``) promises that disabled telemetry costs a
single attribute check per instrumented call site. This experiment puts a
number on that promise for the SPARQL hot path:

* the canary query is timed with tracing **disabled** (the default) and
  **enabled** (spans + operator timers + counters);
* the disabled-mode cost versus a hypothetical *no-telemetry* build is
  estimated by microbenchmarking the guard check itself and multiplying by
  the number of guard evaluations the canary performs — the instrumentation
  adds nothing else on the disabled path;
* every exporter (span tree, JSON lines, metrics payload, bench merge) is
  exercised against the spans the enabled run recorded.

Results are persisted to ``BENCH_obs.json`` at the repo root. Set
``REPRO_BENCH_QUICK=1`` for a smoke-sized run (CI's telemetry job).
"""

import json
import statistics
import time
from pathlib import Path

from repro.env import read_flag
from repro.obs import OBS, render_span_tree, spans_to_jsonl, telemetry_payload
from repro.obs.export import merge_into_bench
from repro.sparql import QueryEngine
from repro.store import MemoryStore
from repro.workload import typed_entities

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

QUICK = read_flag("REPRO_BENCH_QUICK")
ENTITIES = 400 if QUICK else 2_000
REPEATS = 5 if QUICK else 25

CANARY = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    """SELECT ?label ?v WHERE {
        ?e rdfs:label ?label .
        ?e ex:numeric0 ?v .
        ?e a ex:Class1 .
    }"""
)


def _store() -> MemoryStore:
    return MemoryStore(
        typed_entities(ENTITIES, n_classes=4, numeric_properties=1,
                       categorical_properties=1, seed=7)
    )


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class _Guarded:
    """Stand-in for an instrumented object: one slot, checked per call."""

    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer = None


def _guard_check_ns() -> float:
    """Cost of one ``x.tracer is None`` check, the disabled-path tax."""
    probe = _Guarded()
    n = 200_000
    sink = 0

    def guarded() -> None:
        nonlocal sink
        for _ in range(n):
            if probe.tracer is None:
                sink += 1

    def bare() -> None:
        nonlocal sink
        for _ in range(n):
            sink += 1

    guarded_s = min(_median_seconds(guarded, 5), _median_seconds(guarded, 5))
    bare_s = min(_median_seconds(bare, 5), _median_seconds(bare, 5))
    return max(0.0, (guarded_s - bare_s) / n * 1e9)


def _executed_canary(engine: QueryEngine):
    """The operator tree of one complete canary run (the streaming API
    hands the root out; the engine keeps none)."""
    stream = engine.stream_select(CANARY)
    for _ in stream.rows:
        pass
    return stream.root


def _operator_executions(engine: QueryEngine) -> int:
    """Guard evaluations of a canary run: one per operator execute()."""
    total = 0
    stack = [_executed_canary(engine)]
    while stack:
        op = stack.pop()
        total += op.executions
        stack.extend(op.children)
    return total


def test_c14_telemetry_overhead(benchmark):
    store = _store()
    engine = QueryEngine(store)

    prior_enabled = OBS.enabled
    OBS.reset()
    OBS.configure(enabled=False)
    try:
        disabled_s = _median_seconds(lambda: engine.query(CANARY), REPEATS)
        # One guard per operator execute() plus the engine's OBS.enabled
        # check; counted off the operator tree of one more such run.
        guard_evals = _operator_executions(engine) + 1

        OBS.configure(enabled=True, sample_rate=1.0)
        enabled_s = _median_seconds(lambda: engine.query(CANARY), REPEATS)

        # Exporters must work against real recorded spans (CI smoke gate).
        spans = OBS.tracer.recorder.spans()
        assert spans, "enabled run recorded no spans"
        tree = render_span_tree(spans[-1])
        assert "sparql.query" in tree and "op." in tree
        jsonl = spans_to_jsonl(spans)
        assert all(json.loads(line)["name"] for line in jsonl.splitlines())
        payload = telemetry_payload(OBS.metrics, OBS.tracer)
        assert payload["spans"]["sparql.query"]["count"] >= REPEATS
    finally:
        OBS.reset()
        OBS.configure(enabled=prior_enabled)

    guard_ns = _guard_check_ns()
    # Disabled-mode regression vs a no-telemetry build: only the guard
    # checks remain, so their total cost bounds the slowdown.
    estimated_overhead = (guard_ns * guard_evals * 1e-9) / max(disabled_s, 1e-12)
    enabled_ratio = enabled_s / max(disabled_s, 1e-12)

    print(f"\n\nC14: telemetry overhead ({ENTITIES} entities, {REPEATS} runs)")
    print(f"  canary disabled: {disabled_s * 1e3:8.2f} ms")
    print(f"  canary enabled:  {enabled_s * 1e3:8.2f} ms  ({enabled_ratio:.2f}x)")
    print(f"  guard check: {guard_ns:.1f} ns x {guard_evals} evals "
          f"-> {estimated_overhead:.4%} of disabled runtime")

    # Acceptance criterion: disabled tracing within 2% of no-telemetry.
    assert estimated_overhead < 0.02

    RESULTS_PATH.write_text(json.dumps({
        "experiment": "C14 telemetry overhead on canary query",
        "entities": ENTITIES,
        "repeats": REPEATS,
        "canary_disabled_ms": round(disabled_s * 1e3, 4),
        "canary_enabled_ms": round(enabled_s * 1e3, 4),
        "enabled_over_disabled_ratio": round(enabled_ratio, 3),
        "guard_check_ns": round(guard_ns, 2),
        "guard_evals_per_query": guard_evals,
        "estimated_disabled_overhead_vs_no_telemetry": round(
            estimated_overhead, 6
        ),
        "quick_mode": QUICK,
    }, indent=2) + "\n")

    # Exercise the bench-merge exporter against the file just written.
    OBS.configure(enabled=True)
    try:
        engine.query(CANARY)
        merge_into_bench(RESULTS_PATH, OBS.metrics, OBS.tracer)
    finally:
        OBS.reset()
        OBS.configure(enabled=prior_enabled)
    merged = json.loads(RESULTS_PATH.read_text())
    assert "telemetry" in merged and merged["telemetry"]["spans"]
    print(f"  results written to {RESULTS_PATH.name}")

    benchmark(lambda: engine.query(CANARY))


def _roundtrip_ns(fn, n: int) -> float:
    """Median per-call cost of ``fn`` over ``n``-call batches, in ns."""

    def batch() -> None:
        for _ in range(n):
            fn()

    return _median_seconds(batch, 5) / n * 1e9


def test_c14_propagation_and_scrape_overhead(benchmark):
    """C14 addendum: the cross-process additions priced individually.

    Four numbers join ``BENCH_obs.json``:

    * ``trace_context_roundtrip_ns`` — serializing a ``TraceContext`` to
      wire headers and parsing it back, the full per-hop propagation tax;
    * ``propagation_disabled_check_ns`` — what a disabled-tracing process
      pays per outbound request (one ``current_context()`` returning
      ``None``), gated against the same <2% budget as the main test;
    * ``propagation_disabled_overhead`` — that check against the canary;
    * ``metrics_scrape_ms`` — the cost of a ``/metrics`` exposition render
      over a populated registry.
    """
    from repro.obs import TraceContext
    from repro.obs.export import render_prometheus

    store = _store()
    engine = QueryEngine(store)
    prior_enabled = OBS.enabled
    OBS.reset()
    OBS.configure(enabled=False)
    try:
        disabled_s = _median_seconds(lambda: engine.query(CANARY), REPEATS)

        # Per-hop propagation cost: context -> headers -> context.
        context = TraceContext(trace_id="ab" * 8, span_id="cd" * 4)
        roundtrip_ns = _roundtrip_ns(
            lambda: TraceContext.from_headers(context.to_headers()), 5_000)

        # Disabled path of RemoteEndpointSource._request: one
        # current_context() call that returns None.
        check_ns = _roundtrip_ns(OBS.tracer.current_context, 20_000)
        # Even a thousand outbound calls per canary would stay well under
        # the 2% disabled-mode budget; gate on that framing.
        propagation_overhead = (check_ns * 1e-9) / max(disabled_s, 1e-12)
        assert propagation_overhead < 0.02

        # /metrics scrape over a realistically populated registry.
        for index in range(64):
            OBS.metrics.counter("bench.requests", route=f"/r{index % 8}",
                                status=200 + index % 4).inc()
            OBS.metrics.gauge("bench.depth", shard=str(index % 8)).set(index)
            OBS.metrics.histogram("bench.latency_ms",
                                  tenant=f"t{index % 8}").record(index * 0.5)
        scrape_s = _median_seconds(lambda: render_prometheus(OBS.metrics), 20)
        exposition = render_prometheus(OBS.metrics)
        assert "# TYPE bench_requests_total counter" in exposition
    finally:
        OBS.reset()
        OBS.configure(enabled=prior_enabled)

    print("\n\nC14 addendum: propagation + scrape overhead")
    print(f"  trace context roundtrip: {roundtrip_ns:8.1f} ns")
    print(f"  disabled-path check:     {check_ns:8.1f} ns "
          f"({propagation_overhead:.6%} of canary)")
    print(f"  /metrics scrape:         {scrape_s * 1e3:8.3f} ms")

    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() \
        else {}
    results.update({
        "trace_context_roundtrip_ns": round(roundtrip_ns, 1),
        "propagation_disabled_check_ns": round(check_ns, 1),
        "propagation_disabled_overhead": round(propagation_overhead, 8),
        "metrics_scrape_ms": round(scrape_s * 1e3, 4),
    })
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    benchmark(lambda: TraceContext.from_headers(context.to_headers()))


def test_c14_querylog_overhead(benchmark):
    """C14 addendum: the structured query log priced on the canary.

    Keys joining ``BENCH_obs.json``:

    * ``querylog_disabled_check_ns`` / ``querylog_disabled_overhead`` —
      the per-query tax with the log off is one enabled-flag read before
      any digest or scan-walk work happens; gated against the same <2%
      disabled-mode budget as tracing;
    * ``querylog_enabled_ratio`` — canary slowdown with the log recording
      (plan digest + scan-observation walk + ring write per query);
    * ``querylog_record_us`` / ``querylog_records_per_s`` — direct cost
      of one ``emit()`` with counters and scan observations in hand, and
      the sustained throughput that implies;
    * ``workload_analyze_ms`` — one analyzer pass over a full ring.
    """
    from repro.obs import QueryLog
    from repro.obs.workload import analyze
    from repro.sparql.physical import scan_observations

    store = _store()
    engine = QueryEngine(store)
    prior_enabled = OBS.enabled
    OBS.reset()
    OBS.configure(enabled=False)
    log = OBS.querylog
    log.enabled = False
    try:
        disabled_s = _median_seconds(lambda: engine.query(CANARY), REPEATS)

        # Disabled path: engine.query reads the enabled flag and moves on.
        check_ns = _roundtrip_ns(lambda: OBS.querylog.enabled, 20_000)
        querylog_overhead = (check_ns * 1e-9) / max(disabled_s, 1e-12)
        assert querylog_overhead < 0.02

        log.enabled = True
        enabled_s = _median_seconds(lambda: engine.query(CANARY), REPEATS)
        enabled_ratio = enabled_s / max(disabled_s, 1e-12)

        # Direct emit cost with everything already in hand; the engine's
        # extra per-query work beyond this (digest, scan walk) is what the
        # enabled ratio prices.
        root = _executed_canary(engine)
        stats, scans = root.stats, scan_observations(root)
        emit_ns = _roundtrip_ns(
            lambda: log.emit(
                digest="bench-digest", form="SELECT",
                strategy="vectorized:hash", latency_ms=1.0,
                counters=stats, scans=scans,
            ),
            2_000,
        )
        record_us = emit_ns / 1e3
        records_per_s = 1e9 / max(emit_ns, 1e-9)

        # The emit loop above wrapped the ring many times over; analyze a
        # full ring and check the pipeline end (drift seen, digest ranked).
        records = log.records()
        assert len(records) == log.capacity
        # to_dict() forces every aggregation (tenants, digests, drift,
        # regressions); analyze() alone is lazy.
        analyze_s = _median_seconds(lambda: analyze(records).to_dict(), 5)
        report = analyze(records)
        assert report.slow_digests()
        assert report.drift(), "leading-scan drift missing from bench ring"
    finally:
        OBS.reset()
        OBS.configure(enabled=prior_enabled)

    print("\n\nC14 addendum: query log overhead")
    print(f"  disabled check:   {check_ns:8.1f} ns "
          f"({querylog_overhead:.6%} of canary)")
    print(f"  enabled canary:   {enabled_s * 1e3:8.2f} ms "
          f"({enabled_ratio:.2f}x)")
    print(f"  emit():           {record_us:8.2f} us "
          f"({records_per_s:,.0f} records/s)")
    print(f"  workload analyze: {analyze_s * 1e3:8.2f} ms "
          f"({len(records)} records)")

    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() \
        else {}
    results.update({
        "querylog_disabled_check_ns": round(check_ns, 1),
        "querylog_disabled_overhead": round(querylog_overhead, 8),
        "querylog_enabled_ratio": round(enabled_ratio, 3),
        "querylog_record_us": round(record_us, 3),
        "querylog_records_per_s": round(records_per_s, 1),
        "workload_analyze_ms": round(analyze_s * 1e3, 4),
    })
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    bench_log = QueryLog(capacity=512, enabled=True)
    benchmark(lambda: bench_log.emit(
        digest="bench-digest", form="SELECT", strategy="vectorized:hash",
        latency_ms=1.0,
    ))


def test_c15_analysis_full_run(benchmark):
    """The invariant checker over the whole library: CI latency budget.

    ``python -m repro.analysis src/`` runs in every CI build, so its
    wall-clock is part of the feedback loop; hold it under 5 s and
    record it alongside the telemetry numbers. The run doubles as the
    gate's own smoke test: the tree must come back clean.
    """
    from repro.analysis import run_paths

    repo = Path(__file__).resolve().parents[1]
    start = time.perf_counter()
    result = run_paths([repo / "src"], root=repo)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    assert result.findings == [], [f.render() for f in result.findings]
    assert result.parse_errors == []
    assert result.files_scanned > 100

    per_file_ms = elapsed_ms / result.files_scanned
    print(f"\nC15 invariant checker over src/ "
          f"({result.files_scanned} files)")
    print(f"  full run:  {elapsed_ms:8.1f} ms "
          f"({per_file_ms:.2f} ms/file)")
    print(f"  suppressed: {len(result.suppressed)} inline noqa")
    assert elapsed_ms < 5_000, f"checker took {elapsed_ms:.0f} ms"

    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() \
        else {}
    results.update({
        "analysis_full_run_ms": round(elapsed_ms, 1),
        "analysis_per_file_ms": round(per_file_ms, 3),
    })
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    analysis_pkg = repo / "src" / "repro" / "analysis"
    benchmark(lambda: run_paths([analysis_pkg], root=repo))
