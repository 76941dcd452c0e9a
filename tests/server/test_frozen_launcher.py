"""The benchmark launcher's pins still pin.

``benchmarks/e2e/serve.py`` is frozen with the benchmark, and it pins a
server's shed tier by writing ``ServerConfig`` fields and
``server.shedder.burn_shed_threshold``. Here every tenant is made to burn
its budget (each request is delayed past the 100 ms interactive budget),
which is what would move an unpinned server off its tier.
"""

import importlib.util
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.store.memory import MemoryStore

SERVE = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "serve.py"
VALUE = IRI("http://example.org/value")
# A filtered AVG/COUNT over 1,500 first-stage rows: more than the aggressive
# tier's 500-row draw, so it is eligible for an approximate answer.
AGGREGATE = ("SELECT (AVG(?v) AS ?m) (COUNT(?s) AS ?n) "
             "WHERE { ?s <http://example.org/value> ?v FILTER(?v > 10) }")


@pytest.fixture(scope="module")
def serve():
    spec = importlib.util.spec_from_file_location("e2e_serve", SERVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def store():
    store = MemoryStore()
    for index in range(1_500):
        store.add(Triple(IRI(f"http://example.org/item/{index}"), VALUE,
                         Literal(float(index % 97))))
    return store


def ask(server, query):
    url = f"{server.base_url}/sparql?" + urllib.parse.urlencode(
        {"query": query})
    with urllib.request.urlopen(url, timeout=10) as response:
        response.read()
        return response.headers


@pytest.mark.parametrize("tier", ["exact", "aggressive"])
def test_pinned_tier_holds_while_every_tenant_burns(serve, store, tier):
    server = serve.pinned_server(store, tier)
    server.config.debug_delay_ms = 120.0  # past the interactive budget
    with server:
        for _ in range(2):  # fill the windows with over-budget requests
            ask(server, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        answers = [ask(server, AGGREGATE) for _ in range(3)]
        assert server.policy.burn_rate("public") >= 1.0
    if tier == "exact":
        assert [h["X-Repro-Tier"] for h in answers] == ["exact"] * 3
        assert not any("X-Repro-Approximate" in h for h in answers)
    else:
        assert [h["X-Repro-Tier"] for h in answers] == ["aggressive"] * 3
        assert [h["X-Repro-Approximate"] for h in answers] == ["1"] * 3
