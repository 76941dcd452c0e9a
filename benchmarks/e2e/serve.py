"""The benchmark's server launcher: one endpoint process per workload.

Loads an N-Triples file exactly as ``python -m repro.server --data`` does
(``parse_ntriples`` -> ``MemoryStore.add``), then builds ``ServerConfig`` /
``ReproServer`` directly so the shed tier can be *pinned*. The default
server is feedback-driven (latency window plus SLO burn), so two clients
issuing GROUP BYs get a timing-dependent blend of exact and approximate
answers; a benchmark needs one tier or the other.

Protocol with the harness: binds port 0, prints ``READY <port> <triples>``
on stdout once serving, and exits when stdin reaches EOF. Holding the
server on the harness's stdin pipe means a harness that dies, even by
SIGKILL, takes its server with it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.rdf.ntriples import parse_ntriples  # noqa: E402
from repro.server.app import ReproServer, ServerConfig  # noqa: E402
from repro.store.memory import MemoryStore  # noqa: E402

WORKERS = 4
QUEUE_CAPACITY = 64
CACHE_CAPACITY = 128


def pinned_server(store, tier: str) -> ReproServer:
    """A server that answers every eligible aggregate from one tier."""
    if tier == "exact":
        # The latency window never reaches its minimum, and no tenant's
        # SLO burn can escalate: every decision is EXACT.
        config = ServerConfig(
            workers=WORKERS, queue_capacity=QUEUE_CAPACITY,
            cache_capacity=CACHE_CAPACITY, shed_min_observations=10**9,
        )
        server = ReproServer(store, config)
        server.shedder.burn_shed_threshold = float("inf")
        return server
    if tier == "aggressive":
        # Any observed latency exceeds the budget threefold.
        config = ServerConfig(
            workers=WORKERS, queue_capacity=QUEUE_CAPACITY,
            cache_capacity=CACHE_CAPACITY, shed_budget_ms=1e-6,
            shed_min_observations=1,
        )
        return ReproServer(store, config)
    raise ValueError(f"unknown tier: {tier}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="N-Triples file")
    parser.add_argument("--tier", choices=("exact", "aggressive"),
                        default="exact")
    arguments = parser.parse_args(argv)

    store = MemoryStore()
    with open(arguments.data, "r", encoding="utf-8") as handle:
        for triple in parse_ntriples(handle):
            store.add(triple)
    # The planner's statistics are otherwise computed by the first query;
    # they are part of getting ready, so they belong in set-up time.
    store.statistics()

    server = pinned_server(store, arguments.tier)
    server.start()
    try:
        print(f"READY {server.port} {len(store)}", flush=True)
        sys.stdin.buffer.read()  # until the harness closes the pipe or dies
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
