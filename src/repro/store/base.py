"""The triple-source protocol shared by every store implementation.

Higher layers (SPARQL, facets, hierarchies, graph views) are written against
this minimal protocol, so an in-memory :class:`~repro.rdf.graph.Graph`, a
dictionary-encoded :class:`~repro.store.memory.MemoryStore`, and a
disk-backed :class:`~repro.store.paged.PagedTripleStore` are interchangeable
— the survey's "dynamic, billion-object" requirement (Section 2) is then a
matter of choosing the store, not rewriting the exploration stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Iterator, Mapping, Protocol, runtime_checkable

import numpy as np

from ..rdf.graph import TriplePattern
from ..rdf.terms import Predicate, Triple
from .dictionary import TermDictionary

__all__ = [
    "TripleSource",
    "IdScanSource",
    "StoreStatistics",
    "StatisticsSnapshot",
    "as_id_scan_source",
    "compute_statistics",
    "DEFAULT_BATCH_SIZE",
    "FIRST_BATCH_SIZE",
    "DRAINED_BATCH_SIZE",
]

#: Rows per scan batch for every row iterator, and the cap of the doubling
#: chunks a consumer that may stop early is handed. One such chunk through
#: ``gb_all``'s scan, probe and filter stages costs ~0.23 ms, ~0.08 ms of it
#: per-batch calls (e2e data, 30k entities, in process): the most a LIMIT
#: that stops mid-stream wastes.
DEFAULT_BATCH_SIZE = 4096

#: Rows in the first chunk a scan hands its consumer; each following chunk
#: doubles until it reaches the batch size, so a consumer that stops early
#: (ASK, LIMIT) has paid for hundreds of rows, not for a batch.
FIRST_BATCH_SIZE = 256

#: Rows per first-stage chunk of a BGP whose consumer reads every batch (an
#: aggregate, a top-k, the shed tier's fold): stopping early saves nothing,
#: so the per-batch calls are paid once per span. ``gb_all``'s 30k-row span
#: then runs as 2 batch-stages instead of 16 4,096-row ones, 3.6-3.8 ms ->
#: 2.5-2.8 ms (same measurement as above).
DRAINED_BATCH_SIZE = 65536


@runtime_checkable
class TripleSource(Protocol):
    """Anything that can answer triple-pattern queries.

    A source may offer ``version``, a hashable that differs after every
    write (memory, cracking; a federation reports its members'): whoever
    keeps answers stamps them with it. Without one (or with ``None``) a
    source is taken never to change.
    """

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield every triple matching ``pattern`` (``None`` = wildcard)."""
        ...

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """Number of triples matching ``pattern``."""
        ...

    def __len__(self) -> int: ...


@runtime_checkable
class IdScanSource(Protocol):
    """Sources that answer pattern queries over dictionary-encoded ids.

    This is what the BGP executor (:mod:`repro.sparql.vectorized`) runs
    on: instead of pulling decoded :class:`~repro.rdf.terms.Triple`
    objects one at a time, it scans ``(n, 3)`` int64 numpy arrays of id
    triples, extends them by one :meth:`probe_ids` call per batch and
    decodes only what leaves the engine. Memory, cracking and paged stores
    implement it over their own runs and dictionary; every other
    :class:`TripleSource` is given it by :func:`as_id_scan_source`. A
    source may additionally offer ``count_ids(s, p, o)``, the exact match
    count of an id pattern, when it can answer without scanning
    (:meth:`MemoryStore.count_ids
    <repro.store.memory.MemoryStore.count_ids>`): the planner then counts
    patterns instead of estimating them from a :class:`StatisticsSnapshot`.

    ``id_pattern`` follows ``TriplePattern`` shape with ids: ``None`` is a
    wildcard, an ``int`` is a bound dictionary id.
    """

    @property
    def dictionary(self) -> TermDictionary: ...

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        """Yield matching id triples as ``(n, 3)`` int64 arrays.

        Batches stream: producing the first batch must not require
        materializing the full match set, so a ``LIMIT``-ed consumer
        touches a bounded number of batches.
        """
        ...

    def probe_ids(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        key_positions: tuple[int, ...],
        keys: np.ndarray,
        value_positions: tuple[int, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched point probes: row ``i`` of ``keys`` (``(n, k)``, any
        order, repeats allowed) substituted at ``key_positions`` of the id
        pattern, collecting the ids at ``value_positions`` of its matches.

        A position may be given twice, or be bound as well: every id given
        for it must agree (a variable repeated in a pattern adds each of its
        positions). A key id below 0 or never assigned matches nothing. No
        value positions is a membership test. Returns ``(counts, values)``:
        ``counts[i]`` matches for key row ``i`` and ``values``, ``(sum of
        counts, len(value_positions))``, their ids in key order, each key's
        in the order of the run (SPO, POS, OSP) whose key prefix the bound
        positions are. A position that is both key and value raises
        :class:`LookupError`.
        """
        ...


#: Key order (positions 0=s, 1=p, 2=o) of the SPO, POS and OSP runs; run
#: ``i`` leads with position ``i``. The bound positions of any pattern are
#: a prefix of exactly one of these cyclic orders.
_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _serving_run(bound: tuple[bool, bool, bool]) -> tuple[int, int]:
    """Which run has these bound positions as its key prefix, and how
    many key columns that prefix covers."""
    lead = next((i for i in range(3) if bound[i] and not bound[i - 1]), 0)
    return lead, sum(bound)


#: ``_serving_run`` for every pattern shape, indexed by the bit mask
#: ``s bound + 2 * p bound + 4 * o bound`` (it is on every read's path).
_PLANS = tuple(
    _serving_run((bool(mask & 1), bool(mask & 2), bool(mask & 4)))
    for mask in range(8)
)


def run_starts(column: np.ndarray) -> np.ndarray:
    """Indices at which a sorted column starts a new value."""
    if not len(column):
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids by one sort (``np.unique`` hashes int64: ~10x slower)."""
    ordered = np.sort(ids)
    return ordered[run_starts(ordered)]


def ragged_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row ``starts[i] + j`` for every ``j < counts[i]``, in order of ``i``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


def probe_ids_of(
    source: IdScanSource,
    s: int | None,
    p: int | None,
    o: int | None,
    key_positions: tuple[int, ...],
    keys: np.ndarray,
    value_positions: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`IdScanSource.probe_ids` for a source with no run to search:
    one scan per distinct key row, the matches sorted into run order."""
    if not set(key_positions).isdisjoint(value_positions):
        raise LookupError("a position cannot be both key and value")
    keys = np.asarray(keys, dtype=np.int64)
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    assigned = len(source.dictionary)
    found, owners = [np.empty((0, 3), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for index, key in enumerate(distinct.tolist()):
        pattern = [s, p, o]
        for position, term_id in zip(key_positions, key):
            if not 0 <= term_id < assigned or pattern[position] not in (None, term_id):
                break
            pattern[position] = term_id
        else:
            for batch in source.match_id_batches(*pattern):
                found.append(batch)
                owners.append(np.full(len(batch), index))
    rows, owner = np.concatenate(found), np.concatenate(owners)
    bound = {position for position, term_id in enumerate((s, p, o)) if term_id is not None}
    first, second, third = _ORDERS[_PLANS[sum(1 << at for at in bound | set(key_positions))][0]]
    rows = rows[np.lexsort((rows[:, third], rows[:, second], rows[:, first], owner))]
    per_key = np.bincount(owner, minlength=len(distinct))
    counts = per_key[inverse]
    picked = ragged_rows((np.cumsum(per_key) - per_key)[inverse], counts)
    return counts, rows[picked][:, list(value_positions)]


class _ScratchDictionary(TermDictionary):
    """The id space of one :class:`_EncodedSource`. A term it has not met
    may still be in the source, so asking about one assigns its id."""

    lookup = TermDictionary.encode


class _EncodedSource:
    """:class:`IdScanSource` over a source that only yields triples.

    Ids come from a scratch dictionary filled as triples stream through,
    so they mean something only to the plan this adaptor was made for (a
    federation's members keep private dictionaries; a remote endpoint has
    none to share). A scan decodes its bound ids, asks ``triples()`` and
    encodes what comes back in chunks that start at
    :data:`FIRST_BATCH_SIZE` rows and double: nothing is read ahead of the
    consumer beyond the current chunk.
    """

    def __init__(self, store: TripleSource) -> None:
        self._store = store
        self.dictionary = _ScratchDictionary()

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        decode, encode = self.dictionary.decode, self.dictionary.encode
        triples = iter(self._store.triples(
            tuple(None if i is None else decode(i) for i in (s, p, o))
        ))
        size = min(FIRST_BATCH_SIZE, batch_size)
        while True:
            ids = [encode(term) for triple in islice(triples, size) for term in triple]
            if not ids:
                return
            yield np.array(ids, dtype=np.int64).reshape(-1, 3)
            size = min(size * 2, batch_size)

    def probe_ids(self, *probe) -> tuple[np.ndarray, np.ndarray]:
        return probe_ids_of(self, *probe)


def as_id_scan_source(store: object) -> IdScanSource:
    """``store`` as an :class:`IdScanSource`: itself when it has the full
    method surface and a term dictionary (memory, cracking, paged), else
    behind a fresh encoding adaptor (federation, remote endpoints, plain
    graphs, test doubles). Always answers, so every BGP runs on id batches.
    """
    if (
        hasattr(store, "match_id_batches")
        and hasattr(store, "probe_ids")
        and getattr(store, "dictionary", None) is not None
    ):
        return store  # type: ignore[return-value]
    return _EncodedSource(store)  # type: ignore[arg-type]


@dataclass(frozen=True)
class StatisticsSnapshot:
    """Precomputed store statistics for plan-time cardinality estimation.

    A snapshot is cheap to read (plain attribute access, no index scans), so
    the SPARQL optimizer can cost every candidate join order without issuing
    a single ``count()``/``triples()`` call against the store — the design
    the survey's Section 4 asks of interactive-speed engines.
    """

    triple_count: int
    distinct_subjects: int
    distinct_predicates: int
    distinct_objects: int
    predicate_cardinalities: Mapping[Predicate, int] = field(default_factory=dict)
    #: Distinct objects per predicate — the denominator for equality
    #: selectivity on ``?s <p> <o>`` shapes. Indexed stores fill it exactly
    #: from their POS index; the scan fallback estimates it with one HLL
    #: sketch per predicate (:mod:`repro.approx.sketch.hll`), so the figure
    #: may carry that sketch's ~2% relative error.
    predicate_distinct_objects: Mapping[Predicate, int] = field(default_factory=dict)

    def predicate_count(self, predicate: Predicate) -> int:
        """Triples with this predicate (0 if the predicate is unknown)."""
        return self.predicate_cardinalities.get(predicate, 0)

    def predicate_distinct_object_count(self, predicate: Predicate) -> int:
        """Distinct objects under this predicate (0 if unknown/unfilled)."""
        return self.predicate_distinct_objects.get(predicate, 0)

    @property
    def avg_subject_degree(self) -> float:
        return self.triple_count / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def avg_object_degree(self) -> float:
        return self.triple_count / self.distinct_objects if self.distinct_objects else 0.0


@runtime_checkable
class StoreStatistics(Protocol):
    """Stores that can summarize themselves without per-query index scans."""

    def statistics(self) -> StatisticsSnapshot:
        """Return (possibly cached) statistics about the store's contents."""
        ...


#: Register width of the per-predicate HLL sketches ``compute_statistics``
#: uses for distinct-object counts: 2^10 registers = 1 KiB per predicate,
#: ~3.2% relative standard error — selectivity-estimation accuracy at a
#: bounded cost even for stores with thousands of predicates.
_DISTINCT_SKETCH_PRECISION = 10


def compute_statistics(source: TripleSource) -> StatisticsSnapshot:
    """Build a snapshot with one full scan (fallback for plain sources).

    Global distinct counts are exact (one set each); the *per-predicate*
    distinct-object counts are HLL estimates — exact per-predicate sets
    would cost memory proportional to the data, while one 1 KiB sketch per
    predicate keeps the scan's footprint bounded by the schema size.
    """
    from ..approx.sketch.hll import HllSketch, hash_term

    subjects: set = set()
    predicates: dict = {}
    objects: set = set()
    object_sketches: dict = {}
    total = 0
    for s, p, o in source.triples((None, None, None)):
        total += 1
        subjects.add(s)
        objects.add(o)
        predicates[p] = predicates.get(p, 0) + 1
        sketch = object_sketches.get(p)
        if sketch is None:
            sketch = object_sketches[p] = HllSketch(_DISTINCT_SKETCH_PRECISION)
        sketch.add_hash(hash_term(repr(o)))
    return StatisticsSnapshot(
        triple_count=total,
        distinct_subjects=len(subjects),
        distinct_predicates=len(predicates),
        distinct_objects=len(objects),
        predicate_cardinalities=MappingProxyType(predicates),
        predicate_distinct_objects=MappingProxyType(
            {
                p: int(round(sketch.cardinality()))
                for p, sketch in object_sketches.items()
            }
        ),
    )
