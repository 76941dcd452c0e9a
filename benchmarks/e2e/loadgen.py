"""Server process lifecycle and the closed-loop load generator.

Closed loop: the survey's user waits for each answer before forming the
next request, so each client sends its next request only when the previous
one completed. Clients are threads of this one process, at most ``nproc``
of them; each request opens its own connection because the server answers
``Connection: close``, and connection set-up is part of the latency, as it
is for every real client today.
"""

from __future__ import annotations

import http.client
import json
import math
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.env import REGISTRY

from workloads import Request

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
CLIENTS = 2
READY_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 60.0
ACCEPT = "application/sparql-results+json"
KEPT_HEADERS = ("x-repro-approximate", "x-repro-cache", "x-repro-tier",
                "x-repro-error-bound", "x-repro-rows-consumed")


# --------------------------------------------------------------------------- #
# Server processes
# --------------------------------------------------------------------------- #


class ServerProcess:
    """One ``serve.py`` child. ``stop`` is idempotent and always reaps."""

    def __init__(self, data_path: Path, tier: str) -> None:
        # Every declared REPRO_* variable is unset for the server (through
        # env(1): only repro.env may read the environment), so the numbers
        # describe the server's defaults, whatever the shell or CI sets.
        # String hashing is pinned, so that two servers given the same file
        # lay out their dictionaries alike and run at the same pace.
        unset = [word for variable in REGISTRY
                 for word in ("-u", variable.name)]
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            ["env", *unset, "PYTHONHASHSEED=0", sys.executable,
             str(HERE / "serve.py"),
             "--data", str(data_path), "--tier", tier],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.port = 0
        self.triples = 0
        self.setup_s = 0.0

    @property
    def pid(self) -> int:
        return self.process.pid

    def confirm_ready(self, ready_line: bytes) -> None:
        """Parse the ready line, then require a 200 from ``/health``."""
        parts = ready_line.decode("ascii", "replace").split()
        if len(parts) != 3 or parts[0] != "READY":
            raise RuntimeError(f"server did not get ready: {ready_line!r}")
        self.port, self.triples = int(parts[1]), int(parts[2])
        status, _body = fetch(self.port, "/health")
        if status != 200:
            raise RuntimeError(f"/health answered {status}")
        self.setup_s = time.perf_counter() - self.spawned_at

    def stats(self) -> dict:
        status, body = fetch(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_bytes(self) -> int:
        """``VmHWM`` of the server: its peak resident set so far."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        process = self.process
        if process.stdin is not None and not process.stdin.closed:
            process.stdin.close()  # EOF is the launcher's signal to stop
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()


def wait_ready(servers: list[ServerProcess]) -> list[ServerProcess]:
    """Block until every spawned server printed its ready line and answered
    ``/health``. On any failure every one of them is stopped."""
    selector = selectors.DefaultSelector()
    try:
        for server in servers:
            selector.register(server.process.stdout, selectors.EVENT_READ,
                              server)
        waiting = len(servers)
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while waiting:
            remaining = deadline - time.perf_counter()
            events = selector.select(timeout=max(0.0, remaining))
            if not events:
                raise RuntimeError("server set-up timed out")
            for key, _mask in events:
                selector.unregister(key.fileobj)
                key.data.confirm_ready(key.fileobj.readline())
                waiting -= 1
    except BaseException:
        for server in servers:
            server.stop()
        raise
    finally:
        selector.close()
    return servers


def launch(data_path: Path, tier: str, copies: int) -> list[ServerProcess]:
    """Start ``copies`` servers side by side and wait until each is ready.

    Side by side rather than one after another: a set-up takes seconds, the
    machine has a core for each, and several set-up times per run are what
    make the reported median steady.
    """
    servers: list[ServerProcess] = []
    try:
        for _ in range(copies):
            servers.append(ServerProcess(data_path, tier))
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return wait_ready(servers)


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #


@dataclass
class Sample:
    """One completed (or failed) request as the client saw it."""

    index: int
    started: float
    first_byte: float
    finished: float
    status: int  # 0 = no response (refused, reset, timed out)
    headers: dict[str, str]  # KEPT_HEADERS present, or the client's error
    body: bytes | None  # kept only for responses that are checked in full

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1e3


def _one(port: int, index: int, target: str, keep_body: bool) -> Sample:
    started = time.perf_counter()
    first_byte = started
    status, headers, body = 0, {}, b""
    connection = http.client.HTTPConnection(HOST, port,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", target, headers={"Accept": ACCEPT})
        response = connection.getresponse()
        first_byte = time.perf_counter()
        body = response.read()
        status = response.status
        headers = {name: response.getheader(name) for name in KEPT_HEADERS
                   if response.getheader(name) is not None}
    except (OSError, http.client.HTTPException) as error:
        headers = {"error": f"{type(error).__name__}: {error}"}
    finally:
        connection.close()
    finished = time.perf_counter()
    return Sample(index, started, first_byte, finished, status, headers,
                  body if keep_body else None)


def fetch(port: int, target: str) -> tuple[int, bytes]:
    """Status and body of one GET (the probes: ``/health``, ``/stats``)."""
    sample = _one(port, -1, target, True)
    return sample.status, sample.body


def closed_loop(port: int, requests: list[Request], first: int, stop: int,
                seconds: float | None, check_every: int = 0,
                clients: int = CLIENTS) -> list[Sample]:
    """Replay ``requests[first:stop]`` in order from ``clients`` threads.

    Each thread takes the next unissued request when its previous one
    completed. With ``seconds`` the replay also ends at that deadline
    (requests in flight complete and count). Samples come back in issue
    order.
    """
    lock = threading.Lock()
    cursor = first
    samples: list[Sample] = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    def client() -> None:
        nonlocal cursor
        while deadline is None or time.perf_counter() < deadline:
            with lock:
                index = cursor
                if index >= stop:
                    return
                cursor = index + 1
            keep = check_every > 0 and (index - first) % check_every == 0
            sample = _one(port, index, requests[index].target, keep)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client, name=f"e2e-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda sample: sample.index)
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """What the server counted between two ``/stats`` scrapes."""
    delta = {
        f"engine.{name}": after["engine"][name] - before["engine"][name]
        for name in after["engine"]
    }
    delta["admission.rejected"] = (after["admission"]["rejected"]
                                   - before["admission"]["rejected"])
    delta["aggregate_served"] = (after["aggregate_served"]
                                 - before["aggregate_served"])
    delta["aggregate_approximate"] = (after["aggregate_approximate"]
                                      - before["aggregate_approximate"])
    return delta
