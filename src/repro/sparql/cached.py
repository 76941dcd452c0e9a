"""Query-result caching (survey §4: "caching ... may be exploited").

Exploration sessions re-issue queries constantly — every back-navigation,
facet deselection, or dashboard refresh repeats earlier work.
:class:`CachedQueryEngine` wraps :class:`~repro.sparql.eval.QueryEngine`
with a bounded :class:`~repro.cache.result_cache.ResultCache` keyed on the
digest of the *optimized logical plan* and stamped with ``store.version``:
a write is visible to the next identical query (a store without a version
is taken never to change). Eviction is LRU. Plan-keying means
syntactically different but plan-equivalent queries (whitespace, prefix
renaming, reordered constant filters) share one cache entry.

A hit returns the cached rows under a *tagged* EXPLAIN tree: the plan's
``cached`` flag is set so its actual cardinalities are recognizably from
the prior (computing) run, not from a fresh execution. Hit/miss traffic is
mirrored into the ``cache.requests`` telemetry counters (:mod:`repro.obs`).
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace

from ..cache.result_cache import ResultCache
from ..obs import OBS
from ..rdf.graph import Graph
from ..store.base import TripleSource
from .eval import QueryEngine
from .results import SelectResult

__all__ = ["CachedQueryEngine"]


class CachedQueryEngine:
    """A QueryEngine with memoized results.

    Only string-form queries are cached (parsed Query objects are assumed
    to be programmatic one-offs). SELECT results are cached as-is — they
    are immutable by convention; callers must not mutate ``rows``. What
    the engine answered in id batches is cached as id columns and decoded
    into rows by the first reader who asks for them.
    """

    def __init__(self, store: TripleSource, capacity: int = 128) -> None:
        self.engine = QueryEngine(store)
        self.cache = ResultCache(capacity, name="sparql.result")

    def query(self, text: str):
        if not isinstance(text, str):
            return self.engine.query(text)
        started = time.perf_counter_ns()
        key = self.engine.plan_digest(text)
        # Stamped with the version read before evaluation, so a write retires
        # the entry; no answer is None, so None is a miss.
        version = getattr(self.engine.store, "version", None)
        result = self.cache.get(key, stamp=version)
        if result is None:
            result = self.engine.query(text, digest=key)
            self.cache.put(key, result, stamp=version)
            return result
        result = _tag_cached(result)
        # A cache-served query must stay visible to the workload analyzer:
        # log it with cache_hit=true and zeroed scan counters.
        log = OBS.querylog
        if log.enabled:
            log.emit_cache_hit(
                digest=key,
                form=_cached_form(result),
                latency_ms=(time.perf_counter_ns() - started) / 1e6,
                solutions=_cached_solutions(result),
            )
        return result

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


def _tag_cached(result):
    """Mark a cache-served result's EXPLAIN tree as coming from a prior run.

    Only the root node is tagged (``render`` annotates the whole tree from
    it). The cached result object itself is left untouched — the caller of
    the run that *computed* the entry must keep seeing an untagged plan —
    so a hit returns a shallow re-wrap sharing the backing (rows, or id
    columns that stay columns until a reader asks for rows) and stats.
    """
    if not isinstance(result, SelectResult) or result.plan is None:
        return result
    if result.plan.cached:
        return result
    tagged = copy.copy(result)
    tagged.plan = replace(result.plan, cached=True)
    return tagged


def _cached_form(result) -> str:
    """Query-log form label of a cache-served result (the result type is
    all a hit has; the query text was never re-parsed)."""
    if isinstance(result, SelectResult):
        return "SELECT"
    if isinstance(result, bool):
        return "ASK"
    if isinstance(result, Graph):
        return "GRAPH"  # CONSTRUCT and DESCRIBE are indistinguishable here
    return "UNKNOWN"


def _cached_solutions(result) -> int:
    if isinstance(result, (SelectResult, Graph)):
        return len(result)
    return int(bool(result)) if isinstance(result, bool) else 0
