"""Smoke tests of the served-request benchmark (``benchmarks/e2e``).

Collected by the existing ``pytest benchmarks`` CI step. They run the
benchmark at smoke size (2k entities, 40 requests per workload) and touch
nothing outside ``benchmarks/e2e/``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def test_generators_and_reference_match_the_pinned_digests():
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert reference.golden(pinned["seed"], pinned["entities"]) == pinned
    # and the same seed gives byte-identical lists, run after run
    for name in workloads.WORKLOADS:
        first = workloads.build_requests(name, 11, 500, 300)
        again = workloads.build_requests(name, 11, 500, 300)
        assert first == again
        other = workloads.build_requests(name, 12, 500, 300)
        assert workloads.digest_requests(first) \
            != workloads.digest_requests(other)


def test_smoke_run_emits_exactly_the_declared_names():
    started = time.perf_counter()
    subprocess.run(RUN + ["--smoke"], cwd=ROOT, check=True, timeout=120)
    assert time.perf_counter() - started < 60
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(HERE / "out" / "results.json", encoding="utf-8") as handle:
        (run,) = json.load(handle)["runs"]
    assert set(run) == {entry["name"] for entry in spec["workloads"]}
    for name, sections in run.items():
        for section in ("end_to_end", "per_layer"):
            result = sections[section]
            assert set(result["metrics"]) == {
                entry["name"] for entry in spec[section]}, (name, section)
            assert result["failed"] == 0 and result["correct"], name
            assert result["attempted"] >= 1
        layer = sections["per_layer"]["metrics"]
        if name == "degraded":
            assert layer["server.shed.approx_share"] > 0
        else:
            assert layer["server.shed.approx_share"] == 0
        assert layer["trace.overhead_ratio"] > 0

        # children of the traced run nest inside their parents
        spans = [json.loads(line) for line in
                 (HERE / "out" / f"trace-{name}.jsonl").read_text().split("\n")
                 if line]
        assert any(span["parent"] >= 0 for span in spans)
        for span in spans:
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] \
                    <= parent["end"]
                assert parent["request"] == span["request"]


def test_contract_shape_for_one_workload():
    done = subprocess.run(
        RUN + ["--workload", "revisit", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--entities", "2000"],
        cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    assert all(value["value"] > 0 for value in result["metrics"].values())


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        found += [int(child) for child in
                  (task / "children").read_text().split()]
    return found


def _alive(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def test_killing_the_harness_leaves_no_server_behind():
    harness = subprocess.Popen(
        RUN + ["--workload", "browse", "--seconds", "60", "--trace", "0",
               "--entities", "2000"], cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        servers: list[int] = []
        while len(servers) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            servers = sorted(set(servers) | set(_children(harness.pid)))
        assert servers, "the harness never started a server"
        time.sleep(1.0)  # mid-run: set-up or the measured part
        os.kill(harness.pid, signal.SIGKILL)
        harness.wait(timeout=10)
        deadline = time.monotonic() + 20
        while any(map(_alive, servers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_alive, servers)), "orphaned server process"
    finally:
        if harness.poll() is None:
            harness.kill()
            harness.wait()
        # a killed harness cannot remove its own data file
        (HERE / "out" / f"data-{harness.pid}.nt").unlink(missing_ok=True)
