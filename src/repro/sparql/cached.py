"""The answer cache (survey §4: "caching ... may be exploited"): every
back-navigation or facet toggle repeats earlier work. One class, the
library's and the endpoint's (``ReproServer.answers``).

Only exact answers are kept (:class:`Answer`): a SELECT's result and its
bytes per format, encoded when first asked for; an ASK's JSON body; a
graph form's N-Triples body, so a library hit parses a fresh ``Graph``.
An entry is found by its optimized plan's digest (from a text seen before
without a parse) and served only at the ``store.version`` read before it
was evaluated (a store without one is taken never to change). At most
``capacity`` entries weighing :data:`CACHE_BYTES`, LRU. A hit is the
asker's query-log run (its request's record names it); a SELECT hit's
EXPLAIN tree is tagged ``cached``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, replace
from typing import Iterator

from ..cache.result_cache import ResultCache
from ..obs import OBS
from ..rdf.graph import Graph
from ..rdf.ntriples import parse_ntriples, serialize_ntriples
from ..store.base import TripleSource
from .eval import QueryEngine
from .nodes import Query
from .plan import Planned
from .results import (
    SelectResult,
    ask_to_sparql_json,
    batch_block,
    csv_document,
    json_document,
    to_csv,
    to_sparql_json,
    to_tsv,
    tsv_document,
)

__all__ = ["Answer", "CACHE_BYTES", "CachedQueryEngine", "encode_select"]

JSON_TYPE = "application/sparql-results+json"
CSV_TYPE = "text/csv"
TSV_TYPE = "text/tab-separated-values"
NTRIPLES_TYPE = "application/n-triples"
TABLE_TYPE = "text/plain"

# What the kept answers may weigh (id columns at 8 B a cell, encoded
# bodies; their texts get a sixteenth more): no more on 2,000-row pages
# (48 KB of columns + 440 KB of JSON) than four private 128-entry caches
# of columns weighed.
CACHE_BYTES = 16 * 1024 * 1024

# The formats a SELECT streams in: content type and document generator.
STREAMED = {
    "json": (JSON_TYPE, json_document),
    "csv": (CSV_TYPE, csv_document),
    "tsv": (TSV_TYPE, tsv_document),
}

# The library names a graph entry, and logs its hits, by the type it
# returns: a CONSTRUCT and a DESCRIBE are both a Graph.
_BY_TYPE = {"CONSTRUCT": "GRAPH", "DESCRIBE": "GRAPH"}


@dataclass
class Answer:
    """One kept answer: ``bodies`` maps a SELECT format to ``(content
    type, body)``; an ASK or graph form has its one body under ``None``.
    ``aggregate``: the endpoint answered it by its aggregate path."""

    form: str
    solutions: int
    result: SelectResult | None
    bodies: dict[str | None, tuple[str, bytes]]
    version: object = None  # the store's, read before evaluation
    aggregate: bool = False

    def weight(self) -> int:
        weight = sum(len(body) for _, body in list(self.bodies.values()))
        if self.result is not None:
            weight += 8 * len(self.result) * len(self.result.variables)
        return weight


class CachedQueryEngine:
    """:meth:`query` is the library's memoized ``QueryEngine.query``; a
    server's workers :meth:`probe` and fill it with engines of their own.
    Thread-safe: each map locks per operation; bodies only grow."""

    def __init__(self, store: TripleSource, capacity: int = 128) -> None:
        self.engine = QueryEngine(store)
        self.cache = ResultCache(capacity, name="sparql.result",
                                 max_bytes=CACHE_BYTES)
        # Query text → plan digest. A text's digest never changes, so an
        # entry here that outlives its answer costs one parse, no more.
        self.texts = ResultCache(capacity, name="sparql.texts",
                                 max_bytes=CACHE_BYTES // 16)

    def query(self, text: str | Query):
        """``QueryEngine.query`` for a text (a parsed query runs uncached).
        A SELECT hit shares the kept ``rows``: do not mutate them."""
        if not isinstance(text, str):
            return self.engine.query(text)
        digest, planned, answer = self.probe(text, self.engine)
        if answer is None:
            value, answer = self.evaluate(self.engine, planned, digest)
            answer.form = _BY_TYPE.get(answer.form, answer.form)
            self.keep(digest, answer, text)
            return value
        if answer.result is not None:
            # A re-wrap sharing the kept backing (rows, or id columns until a
            # reader asks for rows) and stats, its plan root tagged ``cached``
            # (``render`` annotates the tree from it); the kept plan is not.
            tagged = copy.copy(answer.result)
            if tagged.plan is not None:
                tagged.plan = replace(tagged.plan, cached=True)
            return tagged
        if answer.form == "ASK":
            return bool(answer.solutions)
        return Graph(parse_ntriples(answer.bodies[None][1].decode("utf-8")))

    def version(self) -> object:
        return getattr(self.engine.store, "version", None)

    def probe(self, text: str | None, engine: QueryEngine,
              parsed: Query | None = None):
        """``(digest, planned, entry or None)``: a text seen before names
        its digest, and a hit parses nothing (``planned`` is None); any
        other is parsed (unless ``parsed`` is given) and planned once, the
        plan a miss then runs. Raises what the parser raises."""
        digest = None if parsed is not None else self.texts.get(text)
        if digest is not None:
            answer = self.find(digest)
            return digest, (None if answer else engine.plan(text)), answer
        planned = engine.plan(parsed or text)
        return planned.digest, planned, self.find(planned.digest, text)

    def find(self, key: str, text: str | None = None) -> Answer | None:
        """The entry under ``key`` current for the store, or ``None``. A
        hit emits the asker's one query-log run and is named ``text``."""
        started = time.perf_counter_ns()
        answer = self.cache.get(key, stamp=self.version())
        if answer is not None:
            if text is not None:
                self.texts.put(text, key, len(text))
            OBS.querylog.emit(
                digest=key, form=answer.form, strategy="cached",
                cache_hit=True, solutions=answer.solutions,
                latency_ms=(time.perf_counter_ns() - started) / 1e6,
            )
        return answer

    def evaluate(self, engine: QueryEngine, planned: Planned, digest: str,
                 aggregate: bool = False) -> tuple[object, Answer]:
        """``(what engine.query returned, its entry for :meth:`keep`)``."""
        version = self.version()
        value, form = engine.query(planned, digest=digest), planned.form
        if form == "SELECT":
            return value, Answer(form, len(value), value, {}, version,
                                 aggregate)
        if form == "ASK":
            body = ask_to_sparql_json(value).encode("utf-8")
            return value, Answer(form, int(value), None,
                                 {None: (JSON_TYPE, body)}, version)
        body = serialize_ntriples(value.triples(), sort=True).encode("utf-8")
        return value, Answer(form, len(value), None,
                             {None: (NTRIPLES_TYPE, body)}, version)

    def stream(self, engine: QueryEngine, planned: Planned, digest: str,
               fmt: str, text: str | None = None
               ) -> tuple[str, Iterator[bytes]]:
        """``(content type, chunks)``, one chunk per batch, never decoded.
        The document holds one block back, so the last chunk follows the
        engine's stats and log record; the answer is kept (these bytes, and
        the batches for other formats) before the terminal chunk."""
        version = self.version()
        stream = engine.stream_select(planned, digest=digest)
        content_type, document = STREAMED[fmt]
        kept, written = [], []

        def blocks():
            for batch in stream.batches:
                kept.append(batch)
                yield batch_block(stream.variables, batch.columns,
                                  batch.count, stream.dictionary)

        def chunks():
            for chunk in document(stream.variables, blocks()):
                written.append(chunk.encode("utf-8"))
                yield written[-1]
            result = SelectResult.from_batches(
                stream.variables, kept, stream.dictionary, plan_digest=digest,
            )
            self.keep(digest, Answer(
                "SELECT", len(result), result,
                {fmt: (content_type, b"".join(written))}, version,
            ), text)

        return content_type, chunks()

    def remember(self, key: str, form: str, compute) -> tuple[Answer, bool]:
        """``(entry, hit)`` for what is not a query: the entry under ``key``,
        else ``compute()`` → ``(solutions, (content type, body))``, kept."""
        version = self.version()
        answer = self.find(key)
        if answer is not None:
            return answer, True
        solutions, body = compute()
        answer = Answer(form, solutions, None, {None: body}, version)
        self.keep(key, answer)
        return answer, False

    def body(self, digest: str, answer: Answer, fmt: str | None,
             hit: bool, text: str | None = None) -> tuple[str, bytes]:
        """``(content type, body)`` in ``fmt``, encoded on first request;
        a new answer is kept with it, a kept one again when it grew."""
        body = answer.bodies.get(fmt)
        grown = False
        if body is None:
            body = encode_select(answer.result, fmt)
            grown = answer.bodies.setdefault(fmt, body) is body
        if grown or not hit:
            self.keep(digest, answer, text)
        return body

    def keep(self, digest: str, answer: Answer, text: str | None = None) -> None:
        """Put ``answer`` (again) at what it weighs now, named ``text``;
        before the last byte goes out, so whoever has it finds it."""
        self.cache.put(digest, answer, answer.weight(), stamp=answer.version)
        if text is not None:
            self.texts.put(text, digest, len(text))

    def invalidate(self) -> None:
        """Drop all cached results (after writing to an unversioned store)."""
        self.cache.clear()
        if OBS.enabled:
            OBS.metrics.counter("cache.invalidations", cache="sparql.result").inc()

    @property
    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate

    @property
    def stats(self):
        return self.cache.stats

    def snapshot(self) -> dict[str, int]:
        """The endpoint's /stats ``cache``: bytes count the texts too."""
        return {"entries": len(self.cache), **asdict(self.cache.stats),
                "bytes": self.cache.bytes + self.texts.bytes}


def encode_select(
    result: SelectResult, fmt: str, extra: dict[str, object] | None = None
) -> tuple[str, bytes]:
    """``(content type, body)`` of a SELECT answer in a negotiated format."""
    if fmt == "csv":
        body, content_type = to_csv(result), CSV_TYPE
    elif fmt == "tsv":
        body, content_type = to_tsv(result), TSV_TYPE
    elif fmt == "table":
        body, content_type = result.to_table(max_rows=None), TABLE_TYPE
    else:
        body, content_type = to_sparql_json(result, extra=extra), JSON_TYPE
    return content_type, body.encode("utf-8")

