"""``python -m repro.obs.why``: one request's story from the query log's
JSONL mirror, for a shed answer, a cache hit, a federated query and a 400."""

import os
import subprocess
import sys
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro
from repro.obs import OBS
from repro.obs.querylog import QUERYLOG_DIR_ENV
from repro.obs.why import main
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.server.remote import RemoteEndpointSource
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore
from tests.helpers import wait_for

EX = "http://example.org/"
VALUE = f"<{EX}value>"
AGGREGATE = f"SELECT (COUNT(?s) AS ?n) WHERE {{ ?s {VALUE} ?v . FILTER(?v > 3) }}"


def build_store(n: int = 200, tag: str = "item") -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        store.add(Triple(IRI(f"{EX}{tag}/{index}"), IRI(EX + "value"),
                         Literal(index)))
    return store


def ask(server, query: str, trace_id: str | None = None) -> int:
    """The status of one ``/sparql`` GET, under ``trace_id`` if given."""
    request = urllib.request.Request(
        f"{server.base_url}/sparql?" + urllib.parse.urlencode({"query": query}))
    if trace_id is not None:
        request.add_header("X-Repro-Trace", trace_id)
        request.add_header("X-Repro-Span", "ab" * 4)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def story(trace_id: str, directory, records: int = 1) -> str:
    """What ``why`` prints, once ``records`` for the trace are written."""
    assert wait_for(lambda: len(OBS.querylog.records(trace_id=trace_id))
                    >= records)
    return subprocess.run(
        [sys.executable, "-m", "repro.obs.why", trace_id, str(directory)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
    ).stdout


@pytest.fixture()
def querylog_dir(monkeypatch, tmp_path):
    prior = OBS.enabled
    OBS.reset()  # closes any mirror another test opened
    monkeypatch.setenv(QUERYLOG_DIR_ENV, str(tmp_path))
    yield tmp_path
    OBS.reset()
    OBS.configure(enabled=prior)


def test_a_shed_answer(querylog_dir):
    config = ServerConfig(workers=2, shed_budget_ms=1e-6,
                          shed_min_observations=1, approx_max_rows=8)
    with ReproServer(build_store(), config) as server:
        assert ask(server, f"ASK {{ ?s {VALUE} 7 }}") == 200  # fills the window
        wait_for(lambda: server.policy.shed_p95()[1])
        assert ask(server, AGGREGATE, "a1" * 8) == 200
        text = story("a1" * 8, querylog_dir)
    head, *facts = text.splitlines()
    assert head.startswith(f"a1a1a1a1a1a1a1a1  {server.service}  server.sparql  200")
    assert "tenant=public interactive" in head
    assert facts[0].startswith("  stages  read ")
    assert "· queue " in facts[0] and facts[0].rstrip().split(" ")[-2] == "write"
    tier = next(line for line in facts if line.startswith("  tier"))
    assert "aggressive  (shed p95" in tier and "burn" in tier and "peak" in tier
    cache = next(line for line in facts if line.startswith("  cache"))
    assert "miss" in cache and "+sample" in cache
    assert any(line.startswith(f"  scans   <{EX}value> vbv") for line in facts)


def test_a_cache_hit(querylog_dir):
    with ReproServer(build_store(), ServerConfig(workers=2)) as server:
        query = f"ASK {{ ?s {VALUE} 7 }}"
        assert ask(server, query) == 200
        assert ask(server, query, "b2" * 8) == 200
        text = story("b2" * 8, querylog_dir)
    assert "  cache   hit  " in text and "  ASK  cached" in text
    assert "  stages  read " in text and "· encode " in text
    assert "scans" not in text


def test_a_federated_query(querylog_dir):
    with ReproServer(build_store(5, "a"), ServerConfig(workers=2)) as a, \
            ReproServer(build_store(7, "b"), ServerConfig(workers=2)) as b:
        federated = FederatedStore([
            ("a", RemoteEndpointSource(a.base_url)),
            ("b", RemoteEndpointSource(b.base_url)),
        ])
        OBS.configure(enabled=True)
        with OBS.interaction("client.federated", "interactive") as act:
            assert federated.count((None, None, None)) == 12
        OBS.configure(enabled=False)
        trace_id = act._span.trace_id
        text = story(trace_id, querylog_dir, records=2)
    heads = [line for line in text.splitlines() if not line.startswith(" ")]
    assert {head.split("  ")[1] for head in heads} == {a.service, b.service}
    assert all(head.startswith(trace_id) for head in heads)
    assert text.count("  stages  read ") == len(heads)


def test_a_parse_error(querylog_dir, capsys):
    with ReproServer(build_store(), ServerConfig(workers=2)) as server:
        assert ask(server, "SELEKT", "d4" * 8) == 400
        text = story("d4" * 8, querylog_dir)
    head, stages = text.splitlines()
    assert "  server.sparql  400  " in head
    assert stages.startswith("  stages  read ")
    # the same, in process; an unknown trace id finds nothing
    assert main(["d4" * 8, str(querylog_dir)]) == 0
    assert capsys.readouterr().out == text
    assert main(["ff" * 8, str(querylog_dir)]) == 1
