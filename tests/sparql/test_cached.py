"""The library's answer cache sees writes: entries carry ``store.version``.

The same scenarios as the server's shared cache (``tests/server/
test_answer_cache.py``), through :class:`CachedQueryEngine`: after an
effective write the next identical query is computed afresh and then hit;
a write that changes nothing retires nothing.
"""

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.cached import CachedQueryEngine
from repro.store.cracking import CrackingTripleStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
ITEM = IRI(EX + "item/1")
VALUE = IRI(EX + "value")
SELECT = f"SELECT ?v WHERE {{ <{ITEM}> <{VALUE}> ?v }}"
DESCRIBE = f"DESCRIBE <{ITEM}>"


@pytest.mark.parametrize("store_class", [MemoryStore, CrackingTripleStore])
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
