"""How an exact SELECT reaches the socket: id batches to the serializer.

The served bytes — streamed on the miss, from the columnar cache entry on
the hit — must be what the row operators' answer serializes to row by row;
a failure after the response head must truncate the stream, not write a
second head into it; and a cache entry must stay id columns however often
and in whatever format it is served.
"""

import http.client
import json
import socket
import urllib.parse

import pytest

from repro.obs import OBS
from repro.rdf.terms import BNode, IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.sparql import QueryEngine
from repro.sparql import vectorized
from repro.sparql.results import (
    SelectResult,
    csv_document,
    iter_sparql_json,
    row_blocks,
    tsv_document,
)
from repro.store.memory import MemoryStore
from repro.workload.rdf_graphs import EX, powerlaw_link_graph, typed_entities
from tests.helpers import legacy_csv, legacy_json, legacy_tsv

JSON_TYPE = "application/sparql-results+json"
CSV_TYPE = "text/csv"
TSV_TYPE = "text/tab-separated-values"

PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

NOTE = EX["note"]
AWKWARD_TERMS = [
    IRI("http://example.org/data/café"),
    BNode("b7"),
    Literal("plain"),
    Literal(2.5),
    Literal("bonjour", lang="fr"),
    Literal('she said "hi", twice'),
    Literal("back\\slash"),
    Literal("two\nlines\tand a tab\r"),
    Literal("über 世界 \U0001f600"),
    Literal(-7),
    Literal(True),
]

# FIRST_BATCH_SIZE is 4 in this module (fixture below), so the batches of a
# scan hold 4, 8, 16, ... rows and every listing below spans several.
QUERIES = {
    # the four SELECT shapes of benchmarks/e2e/workloads.py
    "point": "SELECT ?p ?o WHERE { ex:entity3 ?p ?o }",
    "twohop": (
        "SELECT ?m ?l WHERE { ex:entity5 ex:linksTo ?n . "
        "?n ex:linksTo ?m . ?m rdfs:label ?l }"
    ),
    "star": (
        "SELECT ?s ?l ?v ?c WHERE { ?s rdf:type ex:Class1 . ?s rdfs:label ?l . "
        "?s ex:numeric0 ?v . ?s ex:category1 ?c . FILTER(?v > 45.5) } LIMIT 20"
    ),
    "page": (
        "SELECT ?s ?l ?v WHERE { ?s rdf:type ex:Class0 . ?s rdfs:label ?l . "
        "?s ex:numeric1 ?v . FILTER(?v > 95.125) } LIMIT 50"
    ),
    "never_bound": "SELECT ?s ?nope ?v WHERE { ?s ex:numeric0 ?v } LIMIT 7",
    "only_never_bound": "SELECT ?nope WHERE { ?s ex:numeric0 ?v } LIMIT 3",
    "limit_zero": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } LIMIT 0",
    "offset_past_end": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } OFFSET 100000",
    "no_match": "SELECT ?s WHERE { ?s ex:numeric0 ex:entity1 }",
    # batches of ?s ex:numeric0 ?v: rows 0-3, 4-11, 12-27, 28-59, ...
    "cut_on_boundaries": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } OFFSET 4 LIMIT 8",
    "cut_inside_batches": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } OFFSET 5 LIMIT 9",
    "offset_only": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } OFFSET 290",
    "limit_ends_a_batch": "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } LIMIT 12",
    "awkward_terms": "SELECT ?s ?o WHERE { ?s ex:note ?o }",
    # a row plan (OPTIONAL): streamed and cached as columns of terms
    "row_plan": (
        "SELECT ?s ?v ?n WHERE { ?s ex:numeric0 ?v OPTIONAL { ?s ex:note ?n } } "
        "LIMIT 300"
    ),
}


def build_store() -> MemoryStore:
    store = MemoryStore(typed_entities(
        300, n_classes=4, numeric_properties=2, categorical_properties=2, seed=7,
    ))
    for triple in powerlaw_link_graph(
        300, 2, 8, node_factory=lambda i: EX[f"entity{i}"],
    ):
        store.add(triple)
    for index, term in enumerate(AWKWARD_TERMS):
        store.add(Triple(EX[f"entity{index}"], NOTE, term))
    return store


@pytest.fixture(scope="module")
def store():
    return build_store()


@pytest.fixture(scope="module")
def server(store):
    patch = pytest.MonkeyPatch()
    patch.setattr(vectorized, "FIRST_BATCH_SIZE", 4)
    # One worker, so the batch-size patch and the scan order are one
    # thread's; the answer cache is shared whatever the pool size.
    with ReproServer(store, ServerConfig(workers=1)) as instance:
        yield instance
    patch.undo()


def get(server, query: str, accept: str = JSON_TYPE):
    """``(response, body)`` of one GET /sparql, body read in full."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "GET", "/sparql?" + urllib.parse.urlencode({"query": PREFIXES + query}),
            headers={"Accept": accept},
        )
        response = connection.getresponse()
        return response, response.read()
    finally:
        connection.close()


def cache_of(server):
    return server.answers.cache


def entry_of(server, query):
    """The shared cache's entry for ``query``'s plan (counts as a probe)."""
    digest = QueryEngine(server.store).plan_digest(PREFIXES + query)
    return cache_of(server).get(digest, stamp=server.store.version)


FORMATS = {
    JSON_TYPE: (iter_sparql_json, legacy_json),
    CSV_TYPE: (lambda v, rows: csv_document(v, row_blocks(v, rows)), legacy_csv),
    TSV_TYPE: (lambda v, rows: tsv_document(v, row_blocks(v, rows)), legacy_tsv),
}


@pytest.mark.parametrize("accept", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_served_bytes_equal_the_row_serializers_on_miss_and_hit(
    server, store, name, accept
):
    query = QUERIES[name]
    # Rows in the order the served store's own engine produces them (behind
    # the encoding adaptor a probe's matches follow scratch-id order).
    expected = QueryEngine(store).query(PREFIXES + query)
    row_form, reference = FORMATS[accept]
    body = "".join(row_form(expected.variables, expected.rows))
    assert body == reference(expected.variables, expected.rows)
    if name not in ("limit_zero", "offset_past_end", "no_match"):
        assert len(expected.rows) > 0

    cache_of(server).clear()  # the entry is per plan, whatever the format
    first, first_body = get(server, query, accept)
    assert first.status == 200 and first.getheader("X-Repro-Cache") is None
    assert first.getheader("Transfer-Encoding") == "chunked"
    assert first_body.decode("utf-8") == body
    again, again_body = get(server, query, accept)
    assert again.getheader("X-Repro-Cache") == "hit"
    assert again.getheader("Transfer-Encoding") is None
    assert again_body == first_body


def test_a_miss_streams_one_chunk_per_block_and_a_hit_is_one_body(server):
    query = "SELECT ?s ?v WHERE { ?s ex:numeric1 ?v }"  # 300 rows: 4+8+...+128+48
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        target = "/sparql?" + urllib.parse.urlencode({"query": PREFIXES + query})
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: x\r\nAccept: {JSON_TYPE}\r\n\r\n".encode()
        )
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    finally:
        sock.close()
    head, framed = raw.split(b"\r\n\r\n", 1)
    assert b"Transfer-Encoding: chunked" in head and b"X-Repro-Cache" not in head
    sizes = []
    while True:
        size, framed = framed.split(b"\r\n", 1)
        sizes.append(int(size, 16))
        if not sizes[-1]:
            break
        framed = framed[sizes[-1] + 2:]
    # seven batches (4, 8, ..., 128, 48 rows): seven chunks and the terminator,
    # the head riding with the first block and the close with the last
    assert len(sizes) == 8
    response, body = get(server, query)
    assert response.getheader("X-Repro-Cache") == "hit"
    assert len(json.loads(body)["results"]["bindings"]) == 300


def test_cache_entry_stays_columnar_in_every_format(server):
    query = "SELECT ?s ?l WHERE { ?s rdfs:label ?l } LIMIT 40"
    response, _ = get(server, query)
    assert response.getheader("X-Repro-Cache") is None
    answer = entry_of(server, query)
    entry = answer.result
    assert isinstance(entry, SelectResult) and len(entry) == 40
    assert set(answer.bodies) == {"json"}  # the bytes that were streamed
    bodies = {}
    for accept in (JSON_TYPE, CSV_TYPE, TSV_TYPE, "text/plain"):
        response, bodies[accept] = get(server, query, accept)
        assert response.status == 200
        assert response.getheader("X-Repro-Cache") == "hit"
    assert bodies["text/plain"].decode("utf-8") == entry.to_table(max_rows=None)
    # one entry, each format encoded once and served from it after that
    assert entry_of(server, query) is answer
    assert {fmt: body for fmt, (_, body) in answer.bodies.items()} == {
        "json": bodies[JSON_TYPE], "csv": bodies[CSV_TYPE],
        "tsv": bodies[TSV_TYPE], "table": bodies["text/plain"],
    }
    # served four ways and rendered once more here: still two id columns
    assert entry._columns.rows is None
    assert {str(v): c.dtype.kind for v, c in entry._columns.columns.items()} == {
        "s": "i", "l": "i",
    }
    assert len(entry.rows) == 40  # and rows are there for whoever asks


@pytest.mark.parametrize("query, accept", [
    ("SELECT * WHERE { ?s ex:numeric0 ?v } LIMIT 3", JSON_TYPE),
    ("SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } LIMIT 4", "text/plain"),
])
def test_materialized_misses_count_one_cache_miss(server, query, accept):
    stats = cache_of(server).stats
    hits, misses = stats.hits, stats.misses
    response, _ = get(server, query, accept)
    assert response.status == 200 and response.getheader("X-Repro-Cache") is None
    assert (stats.hits, stats.misses) == (hits, misses + 1)
    response, _ = get(server, query, accept)
    assert response.getheader("X-Repro-Cache") == "hit"
    assert (stats.hits, stats.misses) == (hits + 1, misses + 1)


# -- failures while streaming --------------------------------------------------


class FailingScans:
    """The store, except that a scan raises on its ``fail_at``-th batch."""

    def __init__(self, store) -> None:
        self._store = store
        self.dictionary = store.dictionary
        self.fail_at: int | None = None

    def match_id_batches(self, s, p, o, batch_size=4096):
        # 8-row store batches: each becomes one engine batch, one block.
        for index, batch in enumerate(
            self._store.match_id_batches(s, p, o, 8), start=1
        ):
            if index == self.fail_at:
                raise RuntimeError("scan failed")
            yield batch

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, name):
        return getattr(self._store, name)


def stream_errors() -> float:
    return sum(
        metric.value
        for metric in OBS.metrics
        if getattr(metric, "name", "") == "obs.errors"
        and dict(metric.labels).get("site") == "server.stream"
    )


@pytest.fixture()
def failing(store, monkeypatch):
    # undo the module's 4-row first batch: one store batch, one engine batch
    monkeypatch.setattr(vectorized, "FIRST_BATCH_SIZE", 256)
    double = FailingScans(store)
    with ReproServer(double, ServerConfig(workers=1)) as instance:
        yield instance, double


LISTING = "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v }"


@pytest.mark.parametrize("fail_at", [1, 2])
def test_failure_before_the_head_is_a_clean_500(failing, fail_at):
    # The first block is pulled before the head is written, and the document
    # generator holds it back until the second exists: both failures come
    # before any byte went out.
    server, double = failing
    double.fail_at = fail_at
    response, body = get(server, LISTING)
    assert response.status == 500
    assert response.getheader("Transfer-Encoding") is None
    assert "scan failed" in json.loads(body)["error"]


def test_failure_after_the_head_truncates_the_stream(failing):
    server, double = failing
    before = stream_errors()
    double.fail_at = 3
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        target = "/sparql?" + urllib.parse.urlencode({"query": PREFIXES + LISTING})
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: x\r\nAccept: {JSON_TYPE}\r\n\r\n".encode()
        )
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    finally:
        sock.close()
    # one status line, the first block, no terminal chunk: a truncated stream
    assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
    assert raw.count(b"HTTP/1.1") == 1
    assert b'"bindings": [' in raw and not raw.endswith(b"0\r\n\r\n")
    with pytest.raises(http.client.IncompleteRead):
        get(server, LISTING)
    assert stream_errors() == before + 2

    # the worker is alive, nothing partial was cached, the log has the story
    double.fail_at = None
    response, body = get(server, LISTING)
    assert response.status == 200 and response.getheader("X-Repro-Cache") is None
    assert len(json.loads(body)["results"]["bindings"]) == 300
    digest = QueryEngine(server.store).plan_digest(PREFIXES + LISTING)
    assert server.answers.texts.get(PREFIXES + LISTING) == digest
    records = OBS.querylog.records(
        digest=digest, service=f"repro-server:{server.port}"
    )
    assert [r.complete for r in records] == [False, False, True]
