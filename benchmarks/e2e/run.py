"""Served-request benchmark: five workloads against the live server.

Two ways to call it, both from the root of a checkout::

    # one run of one workload; the last stdout line is one JSON object
    python3 benchmarks/e2e/run.py --workload chart --seed 7 --seconds 12 --trace 0

    # every workload, untraced then traced, as a table and out/results.json
    python3 benchmarks/e2e/run.py [--seed 7] [--entities 30000]
                                  [--seconds 12] [--repeat N] [--smoke]

``--trace 0`` measures the end-to-end metrics with no timers anywhere but
the client's clock. ``--trace 1`` is the separate traced run (see
:mod:`layers`) that yields the per-layer metrics. Metric and workload
names, units, directions and regression bounds are declared in
``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("benchmarks/e2e/run.py: src/repro is missing; run it from a "
             "checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import loadgen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_COPIES = 2
SMOKE_ENTITIES = 2_000
SMOKE_REQUESTS = 40
SMOKE_SECONDS = 1.0
PAIRED_SHARE = 0.5  # of --seconds, for the in-process traced + untimed replay


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def verify(dataset, workload, requests, samples) -> tuple[int, list]:
    """Failed operations among ``samples``, and the checks of the responses
    whose body was kept (those are compared with the reference in full; the
    rest must be a 200 from the pinned tier)."""
    failed = 0
    checks = []
    for sample in samples:
        check = reference.check_response(
            dataset, requests[sample.index], sample.status, sample.headers,
            sample.body, workload.tier)
        if sample.body is not None:
            checks.append(check)
        if not check.ok:
            failed += 1
            print(f"FAILED request {sample.index}: {check.reason} "
                  f"{sample.headers.get('error', '')}", file=sys.stderr)
    return failed, checks


def whole_run(samples: list, tail: float) -> dict[str, float]:
    """Throughput, median and tail latency over the whole measured part:
    every request completed, from the first issued to the last finished.

    Not over the better time slices of the run. On a shared machine it is
    the pace of a whole run that moves between runs of one commit, which no
    choice of slices removes (README, *Noise*), and a percentile of one
    slice rests on too few requests.
    """
    latencies = [sample.latency_ms for sample in samples]
    wall = (max(sample.finished for sample in samples)
            - min(sample.started for sample in samples))
    return {
        "qps": len(samples) / wall,
        "p50_ms": loadgen.percentile(latencies, 0.50),
        "tail_ms": loadgen.percentile(latencies, tail),
    }


def _plan(name: str, dataset, seed: int, max_requests: int | None):
    workload = workloads.WORKLOADS[name]
    requests = workloads.build_requests(
        name, seed, dataset.entities, max_requests)
    warmup = workload.warmup if max_requests is None \
        else max(1, max_requests // 20)
    return workload, requests, warmup


def run_untraced(name: str, dataset, data_path: Path, seed: int,
                 seconds: float, max_requests: int | None = None) -> dict:
    """One end-to-end run: fresh server, warm-up, measured part, checks."""
    workload, requests, warmup = _plan(name, dataset, seed, max_requests)
    servers = loadgen.launch(data_path, workload.tier, SETUP_COPIES)
    server = servers[0]
    try:
        for spare in servers[1:]:
            spare.stop()
        loadgen.closed_loop(server.port, requests, 0, warmup, None)
        samples = loadgen.closed_loop(
            server.port, requests, warmup, len(requests), seconds,
            workload.check_every)
        rss_mb = server.peak_rss_bytes() / 2**20
    finally:
        for each in servers:
            each.stop()
    if not samples:
        raise RuntimeError("no request completed in the measured part")
    failed, _checks = verify(dataset, workload, requests, samples)
    by_template: dict[str, list[float]] = {}
    for sample in samples:
        by_template.setdefault(requests[sample.index].kind, []).append(
            sample.latency_ms)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(s.setup_s for s in servers),
            "rss_mb": rss_mb,
            **whole_run(samples, workload.tail),
        },
        # latency per operation type; informational, not a declared metric
        "templates": {
            kind: {"n": len(latencies),
                   "p50_ms": statistics.median(latencies)}
            for kind, latencies in sorted(by_template.items())
        },
    }


def run_traced(name: str, dataset, data_path: Path, seed: int,
               seconds: float, max_requests: int | None = None) -> dict:
    """The per-layer run: the in-process traced replay, the same requests
    untimed (tracing overhead), then over loopback with one client."""
    workload, requests, warmup = _plan(name, dataset, seed, max_requests)
    cap = min(workload.traced, len(requests) - warmup)
    raws = [layers.raw_request(request)
            for request in requests[:warmup + cap]]
    server = loadgen.ServerProcess(data_path, workload.tier)
    try:
        # The server loads the file while this process loads its own copy.
        store, values = layers.timed_load(data_path)
        loadgen.wait_ready([server])
        values["explore.facets.refresh_ms"] = layers.facets_refresh_ms(store)

        tracer = layers.Tracer()
        traced = layers.Pipeline(layers.TimedStore(store, tracer), tracer,
                                 workload.tier)
        plain = layers.Pipeline(store, layers.NullTracer(), workload.tier)
        for pipeline in (plain, traced):
            for index in range(warmup):
                pipeline.serve(index, raws[index])
            pipeline.bytes_out = pipeline.rows_out = 0
        tracer.spans.clear()
        overheads = layers.replay_paired(
            traced, plain, raws[warmup:], warmup, seconds * PAIRED_SHARE)
        count = len(overheads)
        if not count:
            raise RuntimeError("no request handled in the traced replay")
        layers.digest_aside(traced, requests[warmup:warmup + count], warmup)

        loadgen.closed_loop(server.port, requests, 0, warmup, None)
        before = server.stats()
        samples = loadgen.closed_loop(
            server.port, requests, warmup, warmup + count, None,
            check_every=1, clients=1)
        delta = loadgen.stats_delta(before, server.stats())
        server_bytes = server.peak_rss_bytes()
    finally:
        server.stop()
    tracer.write_jsonl(OUT / f"trace-{name}.jsonl")
    errors = layers.nesting_errors(tracer)
    if errors:
        raise RuntimeError("; ".join(errors[:3]))

    failed, checks = verify(dataset, workload, requests, samples)
    values.update(layers.summarize(tracer))
    latencies = [sample.latency_ms for sample in samples]
    c1_p50 = loadgen.percentile(latencies, 0.50)
    approximate = [check for check in checks if check.approximate]
    bound_checked = sum(check.bound_checked for check in approximate)
    rel_errors = [e for check in approximate for e in check.rel_errors]
    solutions = delta["engine.solutions"]
    # counts are per request, so runs that traced fewer requests compare
    values.update({
        "server.http.bytes_out": traced.bytes_out / count,
        "sparql.results.bytes_per_row":
            traced.bytes_out / max(1, traced.rows_out),
        "server.http.ttfb_p50_ms": loadgen.percentile(
            [(s.first_byte - s.started) * 1e3 for s in samples], 0.50),
        "server.admission.rejected": delta["admission.rejected"],
        "server.c1_p50_ms": c1_p50,
        "server.residual_ms": c1_p50 - values["server.layers_sum_ms"],
        "cache.result_cache.hit_share": sum(
            s.headers.get("x-repro-cache") == "hit"
            for s in samples) / len(samples),
        "sparql.exec.scan_rows": delta["engine.scan_rows"] / count,
        "sparql.exec.intermediate_bindings":
            delta["engine.intermediate_bindings"] / count,
        "sparql.exec.solutions": solutions / count,
        "sparql.exec.scan_rows_per_solution":
            delta["engine.scan_rows"] / max(1, solutions),
        "store.lookups": delta["engine.store_lookups"] / count,
        "store.bytes_per_triple": server_bytes / server.triples,
        "server.shed.approx_share":
            delta["aggregate_approximate"]
            / max(1, delta["aggregate_served"]),
        "server.shed.rows_consumed":
            sum(check.rows_consumed for check in approximate) / count,
        "server.shed.bound_violation_share":
            sum(check.bound_violated for check in approximate)
            / max(1, bound_checked),
        "server.shed.rel_error_p50":
            statistics.median(rel_errors) if rel_errors else 0.0,
        "trace.overhead_ratio": statistics.median(overheads),
        "trace.requests": count,
        "client.p99_ms": loadgen.percentile(latencies, 0.99),
    })
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": values,
    }


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #


def contract_line(result: dict, section: list[dict]) -> str:
    """The result in the driver's shape: exactly the declared metrics of
    the section that was measured, each with its declared unit."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": result["metrics"][entry["name"]],
                            "unit": entry["unit"]}
            for entry in section
        },
    })


def print_table(name: str, why: str, results: dict, spec: dict) -> None:
    print(f"\n== {name}: {why}")
    for section in ("end_to_end", "per_layer"):
        result = results[section]
        print(f"  -- {section} (n={result['attempted']}, "
              f"failed={result['failed']}, fail_share="
              f"{result['failed'] / result['attempted']:.4f})")
        for entry in spec[section]:
            value = result["metrics"][entry["name"]]
            print(f"  {entry['name']:38s} {value:14.4f} {entry['unit']}")
        for kind, row in result.get("templates", {}).items():
            print(f"  p50_ms of {kind:28s} {row['p50_ms']:14.4f} ms "
                  f"(n={row['n']})")


@contextmanager
def generated(arguments):
    """The dataset of ``--seed``, and its N-Triples file while in use."""
    dataset = workloads.build_dataset(arguments.entities, arguments.seed)
    data_path = OUT / f"data-{os.getpid()}.nt"
    dataset.write(data_path)
    try:
        yield dataset, data_path
    finally:
        data_path.unlink(missing_ok=True)


def run_set(spec: dict, arguments, seconds: float,
            max_requests: int | None) -> dict:
    """Every workload once: untraced, then traced."""
    results = {}
    with generated(arguments) as (dataset, data_path):
        for entry in spec["workloads"]:
            name = entry["name"]
            results[name] = {
                "end_to_end": run_untraced(
                    name, dataset, data_path, arguments.seed, seconds,
                    max_requests),
                "per_layer": run_traced(
                    name, dataset, data_path, arguments.seed, seconds,
                    max_requests),
            }
            print_table(name, entry["why"], results[name], spec)
    return results


def report_repeats(spec: dict, runs: list[dict]) -> bool:
    """Median and spread of every end-to-end metric over the sets, and
    whether every pair of sets agrees within the metric's bound."""
    print(f"\n== {len(runs)} sets: median, spread (max-min)/median, "
          "and agreement within the bound")
    agreed = True
    for entry in spec["workloads"]:
        name = entry["name"]
        for metric in spec["end_to_end"]:
            values = [run[name]["end_to_end"]["metrics"][metric["name"]]
                      for run in runs]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            within = spread <= metric["bound"]
            agreed = agreed and within
            print(f"  {name:9s} {metric['name']:9s} {median:12.4f} "
                  f"{metric['unit']:5s} spread {spread:7.2%}  bound "
                  f"{metric['bound']:.0%}  "
                  f"{'agree' if within else 'DISAGREE'}")
    print("every pair of sets agrees within the bounds" if agreed
          else "some sets disagree by more than a bound")
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run this workload only, in the driver's shape")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured part "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entities", type=int,
                        default=workloads.DEFAULT_ENTITIES)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times and report "
                        "the spread")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ENTITIES} entities, {SMOKE_REQUESTS} "
                        "requests per workload")
    arguments = parser.parse_args(argv)
    spec = declared()
    seconds = arguments.seconds or spec["run_seconds"]
    max_requests = None
    if arguments.smoke:
        arguments.entities = SMOKE_ENTITIES
        seconds = arguments.seconds or SMOKE_SECONDS
        max_requests = SMOKE_REQUESTS
    OUT.mkdir(exist_ok=True)

    if arguments.workload is None:
        runs = [run_set(spec, arguments, seconds, max_requests)
                for _ in range(arguments.repeat)]
        with open(OUT / "results.json", "w", encoding="utf-8") as handle:
            json.dump({"seed": arguments.seed, "entities": arguments.entities,
                       "seconds": seconds, "runs": runs}, handle, indent=1)
        agreed = len(runs) < 2 or report_repeats(spec, runs)
        correct = all(section["correct"] for run in runs
                      for results in run.values()
                      for section in results.values())
        return 0 if correct and agreed else 1

    run = run_traced if arguments.trace else run_untraced
    with generated(arguments) as (dataset, data_path):
        result = run(arguments.workload, dataset, data_path, arguments.seed,
                     seconds, max_requests)
    section = spec["per_layer" if arguments.trace else "end_to_end"]
    print(contract_line(result, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
