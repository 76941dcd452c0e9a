"""The library's answer cache sees writes: entries carry ``store.version``.

The same scenarios as the server's shared cache (``tests/server/
test_answer_cache.py``), through :class:`CachedQueryEngine`: after an
effective write the next identical query is computed afresh and then hit;
a write that changes nothing retires nothing; concurrent hits, fills and
writes only ever see some version's answer; and a cached graph is every
caller's own.
"""

import sys
import threading

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql import QueryEngine
from repro.sparql.cached import CachedQueryEngine
from repro.store.cracking import CrackingTripleStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
ITEM = IRI(EX + "item/1")
VALUE = IRI(EX + "value")
SELECT = f"SELECT ?v WHERE {{ <{ITEM}> <{VALUE}> ?v }}"
DESCRIBE = f"DESCRIBE <{ITEM}>"


@pytest.mark.parametrize("store_class", [MemoryStore, CrackingTripleStore, Graph])
def test_a_write_is_visible_to_the_next_identical_query(store_class):
    store = store_class()
    store.add(Triple(ITEM, VALUE, Literal(1)))
    store.add(Triple(IRI(EX + "item/2"), VALUE, Literal(2)))
    engine = CachedQueryEngine(store)
    extra = Triple(ITEM, VALUE, Literal(-5))

    def sees(query, write, before: int, after: int) -> None:
        """query → write → the same query: the new answer, computed; the
        query after that is a hit on it."""
        assert len(engine.query(query)) == before
        hits = engine.stats.hits
        assert len(engine.query(query)) == before and engine.stats.hits == hits + 1
        write()
        assert len(engine.query(query)) == after
        assert engine.stats.hits == hits + 1  # a miss
        assert len(engine.query(query)) == after and engine.stats.hits == hits + 2

    sees(SELECT, lambda: store.add(extra), 1, 2)
    sees(SELECT, lambda: store.remove(extra), 2, 1)
    sees(DESCRIBE, lambda: store.add(extra), 1, 2)
    sees(DESCRIBE, lambda: store.remove(extra), 2, 1)
    # each write retired the one entry asked for again after it
    assert engine.stats.retired == 4
    # a write that changes nothing retires nothing
    engine.query(SELECT)  # computed again: the entry predates the DESCRIBE writes
    version = store.version
    assert not store.add(Triple(ITEM, VALUE, Literal(1)))
    assert store.remove(extra) == 0 and store.version == version
    hits = engine.stats.hits
    assert engine.query(SELECT).plan.cached and engine.stats.hits == hits + 1
    assert engine.stats.retired == 5


def test_a_cached_graph_is_each_callers_own():
    store = MemoryStore([Triple(ITEM, VALUE, Literal(1))])
    engine = CachedQueryEngine(store)
    construct = f"CONSTRUCT {{ ?s <{VALUE}> ?v }} WHERE {{ ?s <{VALUE}> ?v }}"
    first = engine.query(construct)
    first.add(Triple(ITEM, VALUE, Literal(99)))
    second = engine.query(construct)
    assert engine.stats.hits == 1
    assert second is not first
    assert set(second.triples()) == {Triple(ITEM, VALUE, Literal(1))}


def canonical(answer):
    """An answer as a comparable value, whatever its form."""
    if isinstance(answer, Graph):
        return frozenset(answer.triples())
    return tuple(sorted(
        tuple(sorted((str(name), str(term)) for name, term in row.items()))
        for row in answer.rows
    ))


def test_mixed_hits_fills_and_writes_from_eight_threads():
    store = MemoryStore([Triple(IRI(f"{EX}item/{n}"), VALUE, Literal(n))
                         for n in range(40)])
    renamed = f"PREFIX e: <{EX}>   SELECT ?v\nWHERE {{ <{ITEM}>   e:value ?v }}"
    queries = [SELECT, renamed, DESCRIBE,
               f"SELECT ?s ?v WHERE {{ ?s <{VALUE}> ?v }} LIMIT 5"]
    extra = [Triple(ITEM, VALUE, Literal(-n)) for n in range(1, 9)]

    # every version the store goes through, answered by a plain engine
    valid = [[canonical(QueryEngine(store).query(q)) for q in queries]]
    for triple in extra:
        store.add(triple)
        valid.append([canonical(QueryEngine(store).query(q)) for q in queries])
    for triple in extra:
        store.remove(triple)
    accepted = [{answers[i] for answers in valid} for i in range(len(queries))]

    engine = CachedQueryEngine(store)
    failures: list[str] = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        turn = offset
        while not stop.is_set():
            index = turn % len(queries)
            turn += 1
            try:
                answer = canonical(engine.query(queries[index]))
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"{type(error).__name__}: {error}")
                return
            if answer not in accepted[index]:
                failures.append(f"{queries[index]!r} -> {answer!r}")
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for triple in extra:  # the writer: eight versions, one at a time
            store.add(triple)
            for _ in range(3):
                engine.query(SELECT)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert engine.stats.hits > 0 and engine.stats.retired > 0
    assert len(engine.cache) <= 3  # three plans under four texts
    # quiescent: the final version's answers, from the cache
    for index, query in enumerate(queries):
        engine.query(query)
        hits = engine.stats.hits
        assert canonical(engine.query(query)) == valid[-1][index]
        assert engine.stats.hits == hits + 1
