"""A streamed listing is encoded from the dictionary's cells, not decoded.

The serializer gathers each id's text from the column of that format's
cells (``TermDictionary.cells``): no term is decoded on the way to the
socket, and a term is encoded for a format once, however many responses
carry it.
"""

import http.client
import urllib.parse
from unittest import mock

from repro.rdf.terms import BNode, IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.sparql import QueryEngine, results
from repro.sparql.results import SelectResult, to_csv, to_sparql_json
from repro.store.memory import MemoryStore

EX = "http://example.org/"
LISTING = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"


def build_store() -> MemoryStore:
    store = MemoryStore()
    for index in range(600):  # several engine batches
        subject = IRI(f"{EX}item/{index}") if index % 5 else BNode(f"b{index}")
        value = [Literal(index % 7), Literal(f"say \"{index % 11}\", ok"),
                 Literal("été", lang="fr"), IRI(f"{EX}v/{index % 13}")][index % 4]
        store.add(Triple(subject, IRI(f"{EX}p"), value))
    return store


def get(server, accept: str) -> bytes:
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "GET", "/sparql?" + urllib.parse.urlencode({"query": LISTING}),
            headers={"Accept": accept},
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Transfer-Encoding") == "chunked"
        return response.read()
    finally:
        connection.close()


def test_a_streamed_listing_decodes_nothing_and_encodes_a_cell_once(monkeypatch):
    store = build_store()
    # the reference: a row-backed result, through the term path
    answer = QueryEngine(store).query(LISTING)
    by_rows = SelectResult(answer.variables, answer.rows)
    distinct = {term for row in by_rows.rows for term in row.values()}
    csv = to_csv(by_rows)

    def forbidden(ids):
        raise AssertionError("decode_batch called while serving a listing")

    monkeypatch.setattr(store.dictionary, "decode_batch", forbidden)
    with ReproServer(store, ServerConfig(workers=2)) as server:
        assert get(server, "application/sparql-results+json").decode() \
            == to_sparql_json(by_rows)
        # a format no response used yet, served twice (the cache emptied
        # between): every cell made by the first, gathered by the second
        with mock.patch.object(results, "_csv_field",
                               wraps=results._csv_field) as encoded:
            for _ in range(2):
                server.answers.cache.clear()
                assert get(server, "text/csv").decode() == csv
        assert encoded.call_count == len(distinct)
