"""``python -m repro.server`` — run a SPARQL endpoint from the shell.

Serves an N-Triples file (``--data``) or, without one, a synthetic
Zipf-skewed typed-entity graph (:func:`repro.workload.rdf_graphs.
typed_entities`) so the quickstart works against a non-trivial dataset out
of the box::

    python -m repro.server --port 8890 --demo-entities 2000
    curl 'http://127.0.0.1:8890/sparql' \\
        --data-urlencode 'query=SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'

``--debug-delay-ms`` injects artificial per-query latency — the overload
lever the CI smoke job pulls to demonstrate load shedding end to end.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..rdf.ntriples import parse_ntriples
from ..store.memory import MemoryStore
from ..workload.rdf_graphs import typed_entities
from .app import ROUTES, ReproServer, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a SPARQL 1.1 Protocol endpoint with admission "
        "control and load shedding.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8890,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--data", metavar="FILE",
                        help="N-Triples file to serve")
    parser.add_argument("--demo-entities", type=int, default=1000,
                        help="size of the synthetic dataset when --data "
                        "is absent (default: 1000)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-capacity", type=int, default=32)
    parser.add_argument("--shed-budget-ms", type=float, default=None,
                        help="p95 latency budget before shedding begins "
                        "(default: the `interactive` class budget)")
    parser.add_argument("--shed-min-observations", type=int, default=8)
    parser.add_argument("--approx-max-rows", type=int, default=2000,
                        help="first-stage rows a shed-tier aggregate is "
                             "answered from (drawn uniformly; a quarter of "
                             "it in the aggressive tier)")
    parser.add_argument("--debug-delay-ms", type=float, default=0.0,
                        help="artificial per-query delay (overload testing)")
    parser.add_argument("--debug-delay-tenant", default=None,
                        help="restrict --debug-delay-ms to one tenant "
                        "(per-tenant SLO/shedding testing)")
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    store = MemoryStore()
    if arguments.data:
        with open(arguments.data, "r", encoding="utf-8") as handle:
            for triple in parse_ntriples(handle):
                store.add(triple)
        origin = arguments.data
    else:
        for triple in typed_entities(arguments.demo_entities):
            store.add(triple)
        origin = f"synthetic ({arguments.demo_entities} entities)"
    config = ServerConfig(
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        queue_capacity=arguments.queue_capacity,
        shed_budget_ms=arguments.shed_budget_ms,
        shed_min_observations=arguments.shed_min_observations,
        approx_max_rows=arguments.approx_max_rows,
        debug_delay_ms=arguments.debug_delay_ms,
        debug_delay_tenant=arguments.debug_delay_tenant,
    )
    server = ReproServer(store, config)
    server.start()
    print(f"serving {len(store)} triples [{origin}] at {server.base_url}",
          flush=True)
    print("endpoints:", *ROUTES, flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
