"""Experiment S1: load shedding and recovery of the serving layer.

Two phases against a live loopback :class:`repro.server.app.ReproServer`
(latency and throughput of served requests are measured by the
``browse`` / ``revisit`` workloads of ``benchmarks/e2e``, not here):

* **forced overload** — an artificial per-query delay blows the p95
  budget; eligible aggregate queries must shed to the approximate tier
  (``X-Repro-Approximate``) for at least 30% of answers while the server
  stays fully available (every response is 200 or an explicit 503);
* **recovery** — the delay is removed, fast traffic refills the shedding
  window, and aggregate answers must return to exact.

Results are persisted to ``BENCH_server.json`` at the repo root and gated
by ``repro.obs.regress``. Set ``REPRO_BENCH_QUICK=1`` for the CI-sized
run.
"""

import json
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from repro.env import read_flag
from repro.server.app import ReproServer, ServerConfig
from repro.store.memory import MemoryStore
from repro.workload import typed_entities

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_server.json"

QUICK = read_flag("REPRO_BENCH_QUICK")
ENTITIES = 300 if QUICK else 1_500
OVERLOAD_AGGREGATES = 10 if QUICK else 30

POINT_QUERY = (
    "SELECT ?s ?v WHERE { ?s <http://example.org/data/numeric0> ?v } LIMIT 5"
)
AGGREGATE_QUERY = (
    "SELECT (AVG(?v) AS ?mean) (COUNT(*) AS ?n) "
    "WHERE { ?s <http://example.org/data/numeric0> ?v }"
)


def _url(base: str, query: str) -> str:
    return f"{base}/sparql?" + urllib.parse.urlencode({"query": query})


def _fetch(url: str) -> tuple[int, dict]:
    try:
        response = urllib.request.urlopen(url, timeout=30)
        headers = dict(response.headers)
        response.read()
        return response.status, headers
    except urllib.error.HTTPError as error:
        error.read()
        return error.code, dict(error.headers)


def test_s1_serving_layer(benchmark):
    store = MemoryStore(typed_entities(
        ENTITIES, n_classes=4, numeric_properties=1,
        categorical_properties=1, seed=7,
    ))
    config = ServerConfig(
        workers=4, queue_capacity=64,
        shed_budget_ms=25.0, shed_window=32, shed_min_observations=4,
        approx_max_rows=100,
    )
    results: dict[str, object] = {
        "experiment": "S1 serving layer: load shedding and recovery",
        "entities": ENTITIES,
        "repeats": OVERLOAD_AGGREGATES,
        "quick_mode": QUICK,
    }
    with ReproServer(store, config) as server:
        base = server.base_url

        # Phase 1 — forced overload: the budget is blown, aggregates shed.
        server.config.debug_delay_ms = 30.0
        select_url = _url(base, POINT_QUERY)
        for _ in range(8):  # heat the p95 window past the budget
            _fetch(select_url)
        aggregate_url = _url(base, AGGREGATE_QUERY)
        statuses: list[int] = []
        approximate = 0
        for _ in range(OVERLOAD_AGGREGATES):
            status, headers = _fetch(aggregate_url)
            statuses.append(status)
            if headers.get("X-Repro-Approximate") == "1":
                approximate += 1
                assert "X-Repro-Error-Bound" in headers
                assert headers["X-Repro-Tier"] in ("sampled", "aggressive")
        served = sum(1 for status in statuses if status == 200)
        errors = sum(1 for status in statuses if status not in (200, 503))
        shed_ratio = approximate / max(served, 1)
        results["overload_shed_ratio"] = round(shed_ratio, 3)
        results["overload_error_rate"] = round(
            errors / len(statuses), 3
        )
        print(f"S1 overload: {approximate}/{served} aggregates approximate "
              f"(shed ratio {shed_ratio:.0%}), {errors} hard errors")
        # Acceptance criteria: available throughout, >=30% shed under load.
        assert errors == 0
        assert shed_ratio >= 0.30

        # Phase 2 — recovery: load subsides, answers return to exact.
        server.config.debug_delay_ms = 0.0
        for _ in range(config.shed_window + 8):
            _fetch(select_url)
        final_tiers = []
        for _ in range(3):  # de-escalation steps one tier per decision
            _status, headers = _fetch(aggregate_url)
            final_tiers.append(headers.get("X-Repro-Tier"))
        recovered = final_tiers[-1] == "exact"
        results["recovered_to_exact"] = 1.0 if recovered else 0.0
        print(f"S1 recovery: tiers {final_tiers}")
        assert recovered

        server_stats = server.stats()
        results["admission_rejected"] = (
            server_stats["admission"]["rejected"]
        )

        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"S1 results written to {RESULTS_PATH.name}")

        benchmark(lambda: _fetch(select_url))
