"""Dictionary-encoded in-memory triple store.

A step up from :class:`repro.rdf.graph.Graph`: terms are interned once in a
:class:`~repro.store.dictionary.TermDictionary` and the three access-path
indexes hold integer ids only. This makes large graphs several times
smaller and pattern matching allocation-free until decode time, which is
what the survey's "limited resources (e.g., laptops)" requirement
(Section 2) asks of an exploration substrate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from types import MappingProxyType

import numpy as np

from ..rdf.graph import TriplePattern
from ..rdf.terms import Triple
from .base import DEFAULT_BATCH_SIZE, StatisticsSnapshot
from .dictionary import TermDictionary

__all__ = ["MemoryStore"]

_IdTriple = tuple[int, int, int]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _sorted_ids(ids) -> np.ndarray:
    """A sorted int64 array from any iterable of ids (snapshots its input)."""
    array = np.fromiter(ids, dtype=np.int64) if not isinstance(ids, np.ndarray) else ids
    if array.size == 0:
        return _EMPTY_IDS
    array.sort()
    return array


class MemoryStore:
    """Indexed id-triple store implementing the TripleSource protocol."""

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        self.dictionary = TermDictionary()
        self._spo: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        self._size = 0
        self._stats: StatisticsSnapshot | None = None
        if triples is not None:
            self.add_all(triples)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns True if the store changed."""
        s, p, o = self.dictionary.encode_triple(triple)
        objects = self._spo[s][p]
        if o in objects:
            return False
        objects.add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._size += 1
        self._stats = None
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Bulk insert (streaming-friendly); returns number added."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, pattern: TriplePattern) -> int:
        """Remove all triples matching ``pattern``; returns removal count."""
        victims = list(self._match_ids(*self._encode_pattern(pattern)))
        for s, p, o in victims:
            self._spo[s][p].discard(o)
            self._pos[p][o].discard(s)
            self._osp[o][s].discard(p)
        self._size -= len(victims)
        if victims:
            self._stats = None
        return len(victims)

    # -- pattern matching ---------------------------------------------------

    def _encode_pattern(
        self, pattern: TriplePattern
    ) -> tuple[int | None, int | None, int | None] | None:
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

    def _match_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[_IdTriple]:
        # Every iterated index view is snapshotted with tuple()/list() before
        # iteration — on every path, not just the selective ones — so a
        # concurrent add() while a server response streams never raises
        # "dictionary changed size during iteration". Triples added
        # mid-iteration may or may not appear, which was already true.
        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return
            preds = (p,) if p is not None else tuple(by_pred)
            for pred in preds:
                objects = by_pred.get(pred)
                if not objects:
                    continue
                if o is not None:
                    if o in objects:
                        yield (s, pred, o)
                else:
                    for obj in tuple(objects):
                        yield (s, pred, obj)
            return
        if p is not None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return
            objs = (o,) if o is not None else tuple(by_obj)
            for obj in objs:
                for subj in tuple(by_obj.get(obj, ())):
                    yield (subj, p, obj)
            return
        if o is not None:
            by_subj = self._osp.get(o)
            if not by_subj:
                return
            for subj, preds in list(by_subj.items()):
                for pred in tuple(preds):
                    yield (subj, pred, o)
            return
        for subj, by_pred in list(self._spo.items()):
            for pred, objects in list(by_pred.items()):
                for obj in tuple(objects):
                    yield (subj, pred, obj)

    # -- IdScanSource capability (vectorized execution substrate) ------------

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        """Matching id triples as streamed ``(n, 3)`` int64 batches."""
        buffer: list[_IdTriple] = []
        for ids in self._match_ids(s, p, o):
            buffer.append(ids)
            if len(buffer) >= batch_size:
                yield np.array(buffer, dtype=np.int64)
                buffer = []
        if buffer:
            yield np.array(buffer, dtype=np.int64)

    def distinct_ids(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> np.ndarray:
        """Sorted unique ids at ``position`` over matches of the id pattern.

        The shapes worst-case-optimal joins intersect — subjects of a
        ``(?, p, o)`` or ``(?, p, ?)`` pattern, objects of ``(s, p, ?)`` —
        are answered straight from the nested indexes; anything else falls
        back to a full match and a unique pass.
        """
        if position == 0 and s is None:
            if p is not None:
                by_obj = self._pos.get(p)
                if not by_obj:
                    return _EMPTY_IDS
                if o is not None:
                    return _sorted_ids(by_obj.get(o, ()))
                seen: set[int] = set()
                for subjects in list(by_obj.values()):
                    seen.update(subjects)
                return _sorted_ids(seen)
            if o is not None:
                return _sorted_ids(self._osp.get(o, ()))
        elif position == 2 and o is None:
            if s is not None:
                by_pred = self._spo.get(s)
                if not by_pred:
                    return _EMPTY_IDS
                if p is not None:
                    return _sorted_ids(by_pred.get(p, ()))
                seen = set()
                for objects in list(by_pred.values()):
                    seen.update(objects)
                return _sorted_ids(seen)
            if p is not None:
                return _sorted_ids(self._pos.get(p, ()))
        elif position == 1 and p is None:
            if s is not None and o is not None:
                return _sorted_ids(self._osp.get(o, {}).get(s, ()))
            if s is not None:
                return _sorted_ids(self._spo.get(s, ()))
            if o is not None:
                by_subj = self._osp.get(o)
                if not by_subj:
                    return _EMPTY_IDS
                seen = set()
                for preds in list(by_subj.values()):
                    seen.update(preds)
                return _sorted_ids(seen)
        matched = {ids[position] for ids in self._match_ids(s, p, o)}
        return _sorted_ids(matched)

    def probe_ids(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        key_position: int,
        keys: np.ndarray,
        value_position: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched point probes straight off the nested dict indexes.

        For each ``keys[i]`` substituted at ``key_position`` of the id
        pattern, collect the distinct ids at ``value_position`` of its
        matches. Returns ``(counts, values)``: ``counts[i]`` matches for
        ``keys[i]`` and ``values`` their concatenation in key order. Only
        the index-friendly shapes (predicate bound, key and value at the
        endpoints) are served; anything else raises :class:`LookupError`
        and callers fall back to per-key :meth:`distinct_ids` probes. This
        amortizes per-probe overhead when a join expands thousands of keys.
        """
        counts = np.empty(len(keys), dtype=np.int64)
        gathered: list[int] = []
        if key_position == 0 and p is not None and o is None and value_position == 2:
            spo = self._spo
            for index, key in enumerate(keys.tolist()):
                by_pred = spo.get(key)
                objects = by_pred.get(p) if by_pred else None
                if objects:
                    counts[index] = len(objects)
                    gathered.extend(objects)
                else:
                    counts[index] = 0
        elif key_position == 2 and p is not None and s is None and value_position == 0:
            by_obj = self._pos.get(p)
            for index, key in enumerate(keys.tolist()):
                subjects = by_obj.get(key) if by_obj else None
                if subjects:
                    counts[index] = len(subjects)
                    gathered.extend(subjects)
                else:
                    counts[index] = 0
        else:
            raise LookupError("unsupported probe shape for nested indexes")
        values = np.fromiter(gathered, dtype=np.int64, count=len(gathered))
        return counts, values

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield matching triples, decoding ids lazily."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return
        decode = self.dictionary.decode_triple
        for ids in self._match_ids(*encoded):
            yield decode(ids)

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0
        s, p, o = encoded
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is None and o is None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None and s is None and o is None:
            return sum(len(subjs) for subjs in self._pos.get(p, {}).values())
        if o is not None and s is None and p is None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return sum(1 for _ in self._match_ids(s, p, o))

    def __contains__(self, triple: Triple) -> bool:
        encoded = self._encode_pattern((triple[0], triple[1], triple[2]))
        if encoded is None:
            return False
        s, p, o = encoded
        return o in self._spo.get(s, {}).get(p, set())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    # -- statistics (used by the SPARQL optimizer) ---------------------------

    def predicate_cardinality(self, predicate_id: int) -> int:
        """Number of triples with the given predicate id."""
        return sum(len(subjs) for subjs in self._pos.get(predicate_id, {}).values())

    def statistics(self) -> StatisticsSnapshot:
        """Cached :class:`StatisticsSnapshot`; recomputed after mutations.

        Computed straight from the id indexes (empty index entries left
        behind by :meth:`remove` are skipped), decoded once per predicate.
        """
        if self._stats is None:
            decode = self.dictionary.decode
            # Index views are snapshotted before iteration, as in
            # ``_match_ids``: a concurrent add() must not raise "dictionary
            # changed size during iteration" out of query planning.
            pos = [(pid, list(by_obj.values())) for pid, by_obj in list(self._pos.items())]
            predicate_cards = {
                decode(pid): card
                for pid, subject_sets in pos
                if (card := sum(len(subjs) for subjs in subject_sets))
            }
            # Exact distinct objects per predicate: the POS index already
            # groups by object, so it's one length per predicate — no
            # sketch needed (the scan fallback in ``compute_statistics``
            # estimates the same figure with HLL).
            predicate_distincts = {
                decode(pid): distinct
                for pid, subject_sets in pos
                if (distinct := sum(1 for subjs in subject_sets if subjs))
            }
            self._stats = StatisticsSnapshot(
                triple_count=self._size,
                distinct_subjects=sum(
                    1
                    for by_pred in list(self._spo.values())
                    if any(objs for objs in list(by_pred.values()))
                ),
                distinct_predicates=len(predicate_cards),
                distinct_objects=sum(
                    1
                    for by_subj in list(self._osp.values())
                    if any(preds for preds in list(by_subj.values()))
                ),
                predicate_cardinalities=MappingProxyType(predicate_cards),
                predicate_distinct_objects=MappingProxyType(predicate_distincts),
            )
        return self._stats

    def id_triples(self) -> Iterator[_IdTriple]:
        """Raw id triples (for bulk exports to the paged store)."""
        return self._match_ids(None, None, None)
