"""Dictionary-encoded in-memory triple store on sorted id runs.

A step up from :class:`repro.rdf.graph.Graph`: terms are interned once in a
:class:`~repro.store.dictionary.TermDictionary` and the store itself is
three sorted int64 permutations of the id triples (SPO, POS, OSP), 96 bytes
per triple. Every pattern's bound ids are the key prefix of one of them, so
a scan, a count and a membership test are all a binary search plus a slice
of an array the vectorized engine consumes as is, and a join probe is a
gather through the predicate's adjacency (its span as offsets by key id) —
what the survey's "limited resources (e.g., laptops)" requirement
(Section 2) asks of an exploration substrate.

The sorted arrays live in an immutable *generation*. ``add`` only appends to
a small delta; the first read after a write folds the delta into a new
generation (sort the delta, merge it into each sorted base by position) and
publishes it with one attribute store. A reader takes the generation once
per call and never locks, so a scan that has started is unaffected by later
writes. Cost: O(delta log delta + n) for a read that follows a write,
nothing otherwise — which is why there is no bulk-load call to remember.
"""

from __future__ import annotations

import threading
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator

import numpy as np

from ..rdf.graph import TriplePattern
from ..rdf.terms import Triple
from .base import (
    _ORDERS, _PLANS, DEFAULT_BATCH_SIZE, StatisticsSnapshot, ragged_rows, run_starts,
    unique_ids,
)
from .dictionary import TermDictionary

__all__ = ["MemoryStore"]

_IdTriple = tuple[int, int, int]
_IdPattern = tuple[int | None, int | None, int | None]

#: A run's first two key columns are searched as one int64,
#: ``first << 32 | second``, so ids must stay below 2^31.
_ID_LIMIT = 1 << 31
_LOW_BITS = (1 << 32) - 1


class _Run:
    """Every triple in one sort order; never modified once built.

    ``cols`` is a C-contiguous ``(3, n)`` array whose rows are the s, p and
    o columns, so each column is contiguous and ``cols[:, lo:hi].T`` is an
    ``(m, 3)`` batch without a copy. ``keys`` is the composite of the two
    leading key columns. Both are read-only: they are handed to consumers.
    """

    __slots__ = ("order", "cols", "keys")

    def __init__(self, order: tuple[int, int, int], cols: np.ndarray) -> None:
        self.order = order
        self.cols = cols
        self.keys = (cols[order[0]] << 32) | cols[order[1]]
        cols.flags.writeable = False
        self.keys.flags.writeable = False

    @classmethod
    def sorted(cls, order: tuple[int, int, int], cols: np.ndarray) -> "_Run":
        """A run from unordered ``(3, n)`` columns: the one full sort."""
        first, second, third = order
        by = np.lexsort((cols[third], (cols[first] << 32) | cols[second]))
        return cls(order, np.take(cols, by, axis=1))

    def span(self, depth: int, ids: tuple) -> tuple:
        """The ``[lo, hi)`` rows matching ``ids`` on the first ``depth`` key
        columns. Each id may be an array (scalars broadcast): every row of
        the columns is then searched at once, by two ``searchsorted`` calls
        on the composite keys and, at depth 3, one search of the third key
        inside each span. At depth 3, ``lo`` is where the triple is or
        would go."""
        keys = self.keys
        if depth == 0:
            return 0, len(keys)
        first, second, third = self.order
        if depth == 1:
            head = ids[first] << 32
            return keys.searchsorted(head), keys.searchsorted(head | _LOW_BITS, "right")
        key = (ids[first] << 32) | ids[second]
        lo, hi = keys.searchsorted(key), keys.searchsorted(key, "right")
        if depth == 3 and len(keys):
            # Where the third key is or would go in each span; a triple is
            # unique, so it matches at most that one row.
            column, wanted, end, last = self.cols[third], ids[third], hi, len(keys) - 1
            if np.ndim(key) == 0:  # one span for every id: search its slice
                lo = lo + column[lo:hi].searchsorted(wanted)
            else:  # a binary search inside every span at once
                while (unresolved := lo < hi).any():
                    middle = np.minimum((lo + hi) >> 1, last)
                    below = unresolved & (column[middle] < wanted)
                    lo = np.where(below, middle + 1, lo)
                    hi = np.where(unresolved & ~below, middle, hi)
            hi = lo + ((lo < end) & (column[np.minimum(lo, last)] == wanted))
        return lo, hi

    def merged(self, rows: np.ndarray) -> "_Run":
        """This run plus ``rows`` (``(3, k)``, none already present).

        Only the new rows are sorted; each is then placed by binary search
        and the base is copied once around them, never re-sorted.
        """
        first, second, third = self.order
        rows = np.take(
            rows, np.lexsort((rows[third], rows[second], rows[first])), axis=1
        )
        at, _ = self.span(3, rows)
        return _Run(self.order, np.insert(self.cols, at, rows, axis=1))

    def without(self, ids: _IdPattern) -> "_Run":
        """This run minus the rows matching the id pattern (order kept)."""
        keep = np.zeros(len(self.keys), dtype=bool)
        for position, bound in enumerate(ids):
            if bound is not None:
                keep |= self.cols[position] != bound
        return _Run(self.order, np.compress(keep, self.cols, axis=1))

    def adjacency(self, ids: _IdPattern, key: int) -> tuple[np.ndarray, np.ndarray]:
        """The leading id's span as ``(offsets, values)``, int32 offsets by
        id at position ``key``: key ``k``'s values, ascending, are
        ``values[offsets[k]:offsets[k + 1]]``. Keyed on the third column,
        the span is re-sorted on it (stably, so values stay ascending)."""
        lo, hi = self.span(1, ids)
        keys, values = self.cols[key, lo:hi], self.cols[3 - self.order[0] - key, lo:hi]
        if self.order[1] != key:
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
        offsets = np.zeros(int(keys.max(initial=-1)) + 2, dtype=np.int32)
        np.cumsum(np.bincount(keys), out=offsets[1:])
        return offsets, values


class _Generation:
    """One version of the store's contents, shared by every reader.

    ``runs[0]`` (SPO) always exists; POS and OSP are sorted the first time
    an access path needs them, a predicate's adjacencies the first time a
    probe needs them, and the statistics snapshot the first time someone
    asks for it. Every fill-in is idempotent, so nothing a reader sees ever
    changes.
    """

    __slots__ = ("runs", "adjacency", "size", "stats")

    def __init__(self, runs: list[_Run | None]) -> None:
        self.runs = runs  # guarded-by: _lock (MemoryStore's, for fill-ins)
        #: ``(predicate id, key position)`` -> :meth:`_Run.adjacency`.
        self.adjacency: dict[tuple[int, int], tuple] = {}  # guarded-by: _lock
        self.size = len(runs[0].keys)
        self.stats: StatisticsSnapshot | None = None


class MemoryStore:
    """Indexed id-triple store implementing the TripleSource protocol."""

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        self.dictionary = TermDictionary()
        #: Full sorts of one permutation paid so far. Folding writes into a
        #: non-empty store merges by position and does not count.
        self.sorts_paid = 0
        self._lock = threading.Lock()
        self._delta: set[_IdTriple] = set()  # guarded-by: _lock
        # Published copy-on-write: replaced whole (under _lock), never
        # modified, so readers use whichever generation they picked up.
        self._generation = _Generation(
            [_Run(_ORDERS[0], np.empty((3, 0), dtype=np.int64)), None, None]
        )
        # Written under _lock, read without it: the number of triples, and
        # whether _delta holds writes the published generation lacks.
        self._size = 0
        self._dirty = False
        #: Writes that changed the contents so far (bumped last: whoever
        #: reads it reads them). What is read after taking ``version`` is
        #: current for as long as it stays the same.
        self.version = 0
        if triples is not None:
            self.add_all(triples)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns True if the store changed."""
        ids = self.dictionary.encode_triple(triple)
        if (ids[0] | ids[1] | ids[2]) >= _ID_LIMIT:
            raise OverflowError(f"term id beyond 2^31 - 1 in {ids}")
        with self._lock:
            if ids in self._delta:
                return False
            base = self._generation
            if base.size:
                lo, hi = base.runs[0].span(3, ids)
                if lo < hi:
                    return False
            self._delta.add(ids)
            self._size += 1
            self._dirty = True
            self.version += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Bulk insert (streaming-friendly); returns number added."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, pattern: TriplePattern) -> int:
        """Remove all triples matching ``pattern``; returns removal count."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0
        with self._lock:
            self._fold_locked()
            base = self._generation
            survivors = base.runs[0].without(encoded)
            removed = base.size - len(survivors.keys)
            if removed:
                self._generation = _Generation(
                    [survivors]
                    + [run and run.without(encoded) for run in base.runs[1:]]
                )
                self._size -= removed
                self.version += 1
        return removed

    def _fold_locked(self) -> None:
        """Publish a generation that includes the pending writes."""
        if self._delta:
            rows = np.fromiter(
                chain.from_iterable(self._delta),
                dtype=np.int64,
                count=3 * len(self._delta),
            ).reshape(-1, 3).T
            base = self._generation
            if base.size:
                runs = [run and run.merged(rows) for run in base.runs]
            else:
                runs = [_Run.sorted(_ORDERS[0], rows), None, None]
                self.sorts_paid += 1
            self._generation = _Generation(runs)
            self._delta = set()
        self._dirty = False

    # -- reading -------------------------------------------------------------

    def _current(self) -> _Generation:
        """The generation to read, with every earlier write folded in."""
        if self._dirty:
            with self._lock:
                self._fold_locked()
        return self._generation

    def _run(self, generation: _Generation, lead: int) -> _Run:
        """The run leading with position ``lead``, sorted on first use."""
        run = generation.runs[lead]
        if run is None:
            with self._lock:  # concurrent first readers pay for one sort
                run = generation.runs[lead]
                if run is None:
                    run = _Run.sorted(_ORDERS[lead], generation.runs[0].cols)
                    generation.runs[lead] = run
                    self.sorts_paid += 1
        return run

    def _span(self, ids: _IdPattern) -> tuple[_Run, int, int]:
        """The run serving the id pattern and its matching row range."""
        lead, depth = _PLANS[
            (ids[0] is not None) + 2 * (ids[1] is not None) + 4 * (ids[2] is not None)
        ]
        run = self._run(self._current(), lead)
        lo, hi = run.span(depth, ids)
        return run, int(lo), int(hi)

    def _encode_pattern(self, pattern: TriplePattern) -> _IdPattern | None:
        """Translate a term pattern into an id pattern.

        Returns ``None`` when a bound term is not in the dictionary — the
        answer is then provably empty without touching any index.
        """
        ids: list[int | None] = []
        for term in pattern:
            if term is None:
                ids.append(None)
            else:
                term_id = self.dictionary.lookup(term)
                if term_id is None:
                    return None
                ids.append(term_id)
        return ids[0], ids[1], ids[2]

    # -- IdScanSource capability (vectorized execution substrate) ------------

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        """Matching id triples as ``(n, 3)`` int64 batches, in run order.

        Batches are read-only views of the generation current at the first
        ``next()``; writes made while the scan streams do not reach it.
        """
        run, lo, hi = self._span((s, p, o))
        rows = run.cols.T
        for start in range(lo, hi, batch_size):
            yield rows[start : min(start + batch_size, hi)]

    def count_ids(self, s: int | None, p: int | None, o: int | None) -> int:
        """Exact number of matches of the id pattern: the length of its
        span, two binary searches. Offering this method is how a source
        says a count costs it no scan; the SPARQL planner then prices
        triple patterns by counting instead of from a statistics snapshot.
        """
        _, lo, hi = self._span((s, p, o))
        return hi - lo

    def distinct_ids(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> np.ndarray:
        """Sorted unique ids at ``position`` over matches of the id pattern.

        When ``position`` is the key column right after the bound prefix —
        subjects of ``(?, ?, o)``, objects of ``(s, p, ?)`` or ``(?, p, ?)``,
        the shapes worst-case-optimal joins intersect — the answer is the
        run's own slice; other shapes pay one sort over the span.
        """
        ids = (s, p, o)
        if s is None and p is None and o is None:
            run, depth = self._run(self._current(), position), 0
            lo, hi = 0, len(run.keys)
        else:
            run, lo, hi = self._span(ids)
            depth = 3 - ids.count(None)
        column = run.cols[position, lo:hi]
        if ids[position] is not None:
            return column[:1]
        if run.order[depth] != position:
            return unique_ids(column)
        if depth == 2:  # triples are unique: the last key never repeats
            return column
        return column[run_starts(column)]

    def probe_ids(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        key_positions: tuple[int, ...],
        keys: np.ndarray,
        value_positions: tuple[int, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`IdScanSource.probe_ids <repro.store.base.IdScanSource.probe_ids>`
        from the runs. A star probe (one key, one value, the third position
        bound) gathers through the bound id's adjacency: two reads of its
        offsets per key, a key below 0 or past the end reading as no match.
        Otherwise the bound ids and key positions are the key prefix of one
        run, every key row's span in it is found at once (:meth:`_Run.span`)
        and the rows are one ragged gather.
        """
        if not set(key_positions).isdisjoint(value_positions):
            raise LookupError("a position cannot be both key and value")
        ids, keys, generation = (s, p, o), np.asarray(keys, dtype=np.int64), self._current()
        fixed = 3 - sum(key_positions) - sum(value_positions)
        if len(key_positions) == len(value_positions) == 1 and ids.count(None) == 2 and (
            ids[fixed] is not None
        ):
            (key_at,), column = key_positions, keys[:, 0]
            run, slot = self._run(generation, fixed), (ids[fixed], key_at)
            # Only a predicate's adjacencies are kept (two at most); another
            # bound id's is built for this call.
            kept = generation.adjacency if fixed == 1 else {}
            if slot not in kept:
                with self._lock:  # concurrent first probes pay for one build
                    if slot not in kept:
                        kept[slot] = run.adjacency(ids, key_at)
            offsets, values = kept[slot]
            starts = offsets.take(column, mode="clip")
            counts = offsets.take(column + 1, mode="clip") - starts
            found, total = np.count_nonzero(counts), int(counts.sum())
            if total == found:  # no key matched twice: its start is its row
                if found < len(keys):
                    starts = starts[counts > 0]
                return counts.astype(np.int64), values.take(starts)[:, None]
            counts = counts.astype(np.int64)
            return counts, values.take(ragged_rows(starts, counts))[:, None]
        bound: list = list(ids)
        agree = None
        for position, column in zip(key_positions, keys.T):
            if bound[position] is None:
                bound[position] = column
            else:  # a repeated or bound position: its ids must agree
                same = bound[position] == column
                agree = same if agree is None else agree & same
        lead, depth = _PLANS[sum(1 << at for at in range(3) if bound[at] is not None)]
        if depth == 3 and ids.count(None) == 1:
            # Membership against two bound ids: the run they lead shares
            # one span among all keys.
            lead = (ids.index(None) + 1) % 3
        run = self._run(generation, lead)
        lo, hi = run.span(depth, bound)
        if np.ndim(lo) == 0:  # no key column: one span for every key row
            lo, hi = np.full(len(keys), lo), np.full(len(keys), hi)
        counts = hi - lo
        if agree is not None:
            counts[~agree] = 0
        if not value_positions:  # a membership test
            return counts, np.empty((int(counts.sum()), 0), dtype=np.int64)
        return counts, run.cols[np.ix_(value_positions, ragged_rows(lo, counts))].T

    # -- TripleSource protocol -----------------------------------------------

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield matching triples, decoding ids lazily."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return
        yield from map(self.dictionary.decode_triple, self._match_ids(encoded))

    def _match_ids(self, ids: _IdPattern) -> Iterator[_IdTriple]:
        for batch in self.match_id_batches(*ids):
            yield from zip(*batch.T.tolist())

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        encoded = self._encode_pattern(pattern)
        return 0 if encoded is None else self.count_ids(*encoded)

    def __contains__(self, triple: Triple) -> bool:
        return self.count(triple) > 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def id_triples(self) -> Iterator[_IdTriple]:
        """Raw id triples (for bulk exports to the paged store)."""
        return self._match_ids((None, None, None))

    # -- statistics (served by ``/statistics``; merged by a federation) -----

    def statistics(self) -> StatisticsSnapshot:
        """Exact :class:`StatisticsSnapshot` of the current generation.

        Read off run boundaries and cached on the generation it describes,
        so a snapshot can never outlive the contents it was computed from.
        """
        generation = self._current()
        if generation.stats is None:
            spo, pos, osp = (self._run(generation, lead) for lead in range(3))
            decode = self.dictionary.decode
            predicates, cards = np.unique(pos.cols[1], return_counts=True)
            # One POS key per distinct (p, o): counting them per predicate
            # gives exact distinct objects, aligned with ``predicates``.
            pairs = pos.keys[run_starts(pos.keys)] >> 32
            distincts = np.unique(pairs, return_counts=True)[1]
            terms = [decode(pid) for pid in predicates.tolist()]
            generation.stats = StatisticsSnapshot(
                triple_count=generation.size,
                distinct_subjects=len(run_starts(spo.cols[0])),
                distinct_predicates=len(terms),
                distinct_objects=len(run_starts(osp.cols[2])),
                predicate_cardinalities=MappingProxyType(
                    dict(zip(terms, cards.tolist()))
                ),
                predicate_distinct_objects=MappingProxyType(
                    dict(zip(terms, distincts.tolist()))
                ),
            )
        return generation.stats
