"""Disk-backed, paged triple store with an LRU buffer pool.

The survey's Discussion (Section 4) singles out the lack of disk-based
implementations as the key scalability failure of WoD tools: "most of the
existing systems ... initially load all the examined objects in main
memory". Systems like graphVizdb [22, 23] instead keep data on disk and
fetch only what an interaction needs. This module provides that substrate:

* triples are dictionary-encoded and stored **sorted** in three
  permutations (SPO, POS, OSP) as fixed-size binary pages;
* a small in-memory *fence index* (first key of every page) routes a
  triple-pattern prefix scan to the right page run;
* pages are fetched through an :class:`LRUBufferPool` of bounded size, so
  resident memory is O(pool + answer), never O(dataset).

The store is build-once / read-many, which matches the exploration setting:
one bulk load (or import from a :class:`~repro.store.memory.MemoryStore`),
then an interactive read workload.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..obs import OBS
from ..rdf.graph import TriplePattern
from ..rdf.terms import Triple
from .base import (
    DEFAULT_BATCH_SIZE,
    StatisticsSnapshot,
    compute_statistics,
    distinct_ids_of,
    probe_ids_of,
)
from .dictionary import TermDictionary

__all__ = ["PagedTripleStore", "LRUBufferPool", "BufferPoolStats"]

_TRIPLE = struct.Struct("<III")
_PERMUTATIONS = ("spo", "pos", "osp")
_MAX_ID = 2**32 - 1

# meta.bin v2 starts with this magic; files without it are the legacy
# (pre-statistics) layout and get their statistics recomputed on demand.
_META_MAGIC = b"RPG2"

# (s, p, o) -> key order per permutation, and its inverse.
_PERMUTE = {
    "spo": lambda s, p, o: (s, p, o),
    "pos": lambda s, p, o: (p, o, s),
    "osp": lambda s, p, o: (o, s, p),
}
_UNPERMUTE = {
    "spo": lambda a, b, c: (a, b, c),
    "pos": lambda a, b, c: (c, a, b),
    "osp": lambda a, b, c: (b, c, a),
}


def _chunks(arrays: list[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The rows of ``arrays``, in order, ``size`` at a time."""
    merged = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    for start in range(0, len(merged), size):
        yield merged[start : start + size]


@dataclass
class BufferPoolStats:
    """Counters exposed for the C5/C9 benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class LRUBufferPool:
    """A fixed-capacity page cache with least-recently-used eviction."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs capacity >= 1 page")
        self.capacity = capacity_pages
        self._pages: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self.stats = BufferPoolStats()

    def get(self, key: tuple[str, int]) -> bytes | None:
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return page

    def put(self, key: tuple[str, int], page: bytes) -> None:
        self._pages[key] = page
        self._pages.move_to_end(key)
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        return sum(len(p) for p in self._pages.values())

    def clear(self) -> None:
        self._pages.clear()


@dataclass
class _Permutation:
    """One sorted on-disk run plus its in-memory fence keys."""

    name: str
    path: str
    fences: list[tuple[int, int, int]] = field(default_factory=list)
    page_count: int = 0


class PagedTripleStore:
    """Read-optimized disk triple store (graphVizdb-style substrate).

    Use :meth:`build` to create the files, :meth:`open` to attach to them.
    """

    def __init__(
        self,
        directory: str,
        dictionary: TermDictionary,
        permutations: dict[str, _Permutation],
        size: int,
        page_size: int,
        cache_pages: int = 64,
        raw_statistics: tuple[int, int, int, dict[int, int]] | None = None,
    ) -> None:
        self.directory = directory
        self.dictionary = dictionary
        self._perms = permutations
        self._size = size
        self.page_size = page_size
        self.triples_per_page = page_size // _TRIPLE.size
        self.pool = LRUBufferPool(cache_pages)
        # (distinct_s, distinct_p, distinct_o, {predicate_id: count})
        self._raw_statistics = raw_statistics
        self._stats: StatisticsSnapshot | None = None
        self._files = {
            name: open(perm.path, "rb") for name, perm in permutations.items()
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        triples: Iterable[Triple],
        directory: str,
        page_size: int = 4096,
        cache_pages: int = 64,
    ) -> "PagedTripleStore":
        """Bulk-load ``triples`` into ``directory`` and open the result."""
        if page_size < _TRIPLE.size:
            raise ValueError("page size smaller than one triple record")
        os.makedirs(directory, exist_ok=True)
        with OBS.tracer.span("store.paged.build", directory=directory) as span:
            return cls._build_files(
                triples, directory, page_size, cache_pages, span
            )

    @classmethod
    def _build_files(
        cls,
        triples: Iterable[Triple],
        directory: str,
        page_size: int,
        cache_pages: int,
        span,
    ) -> "PagedTripleStore":
        dictionary = TermDictionary()
        id_triples: set[tuple[int, int, int]] = set()
        for triple in triples:
            id_triples.add(dictionary.encode_triple(triple))

        per_page = page_size // _TRIPLE.size
        pages_written = 0
        permutations: dict[str, _Permutation] = {}
        for name in _PERMUTATIONS:
            permute = _PERMUTE[name]
            keys = sorted(permute(s, p, o) for s, p, o in id_triples)
            path = os.path.join(directory, f"{name}.dat")
            perm = _Permutation(name=name, path=path)
            with open(path, "wb") as fh:
                for start in range(0, len(keys), per_page):
                    page_keys = keys[start : start + per_page]
                    perm.fences.append(page_keys[0])
                    payload = b"".join(_TRIPLE.pack(*k) for k in page_keys)
                    fh.write(payload.ljust(page_size, b"\xff"))
                    perm.page_count += 1
                    pages_written += 1
            permutations[name] = perm
        if OBS.enabled:
            OBS.metrics.counter("store.paged.page_writes").inc(pages_written)

        # Store statistics, computed once at build time and persisted in the
        # meta header so re-opened stores can plan queries without scanning.
        subjects: set[int] = set()
        objects: set[int] = set()
        predicate_counts: dict[int, int] = {}
        for s, p, o in id_triples:
            subjects.add(s)
            objects.add(o)
            predicate_counts[p] = predicate_counts.get(p, 0) + 1
        raw_statistics = (len(subjects), len(predicate_counts), len(objects), predicate_counts)

        with open(os.path.join(directory, "terms.dict"), "wb") as fh:
            dictionary.dump(fh)
        with open(os.path.join(directory, "meta.bin"), "wb") as fh:
            fh.write(_META_MAGIC)
            fh.write(struct.pack("<II", page_size, len(id_triples)))
            fh.write(struct.pack("<III", *raw_statistics[:3]))
            fh.write(struct.pack("<I", len(predicate_counts)))
            for pid in sorted(predicate_counts):
                fh.write(struct.pack("<II", pid, predicate_counts[pid]))
            for name in _PERMUTATIONS:
                perm = permutations[name]
                fh.write(struct.pack("<I", perm.page_count))
                for fence in perm.fences:
                    fh.write(_TRIPLE.pack(*fence))

        span.set_attribute("triples", len(id_triples))
        span.set_attribute("pages", pages_written)
        return cls(
            directory,
            dictionary,
            permutations,
            size=len(id_triples),
            page_size=page_size,
            cache_pages=cache_pages,
            raw_statistics=raw_statistics,
        )

    @classmethod
    def open(cls, directory: str, cache_pages: int = 64) -> "PagedTripleStore":
        """Attach to a store previously created by :meth:`build`."""
        with open(os.path.join(directory, "terms.dict"), "rb") as fh:
            dictionary = TermDictionary.load(fh)
        with open(os.path.join(directory, "meta.bin"), "rb") as fh:
            raw_statistics = None
            magic = fh.read(4)
            if magic == _META_MAGIC:
                page_size, size = struct.unpack("<II", fh.read(8))
                distinct_s, distinct_p, distinct_o = struct.unpack("<III", fh.read(12))
                (n_predicates,) = struct.unpack("<I", fh.read(4))
                predicate_counts: dict[int, int] = {}
                for _ in range(n_predicates):
                    pid, card = struct.unpack("<II", fh.read(8))
                    predicate_counts[pid] = card
                raw_statistics = (distinct_s, distinct_p, distinct_o, predicate_counts)
            else:  # legacy header without the statistics block
                fh.seek(0)
                page_size, size = struct.unpack("<II", fh.read(8))
            permutations: dict[str, _Permutation] = {}
            for name in _PERMUTATIONS:
                (page_count,) = struct.unpack("<I", fh.read(4))
                fences = [
                    _TRIPLE.unpack(fh.read(_TRIPLE.size)) for _ in range(page_count)
                ]
                permutations[name] = _Permutation(
                    name=name,
                    path=os.path.join(directory, f"{name}.dat"),
                    fences=fences,
                    page_count=page_count,
                )
        return cls(
            directory,
            dictionary,
            permutations,
            size=size,
            page_size=page_size,
            cache_pages=cache_pages,
            raw_statistics=raw_statistics,
        )

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files.clear()

    def __enter__(self) -> "PagedTripleStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Page access
    # ------------------------------------------------------------------ #

    def _read_page(self, perm_name: str, page_no: int) -> bytes:
        key = (perm_name, page_no)
        page = self.pool.get(key)
        if page is None:
            fh = self._files[perm_name]
            fh.seek(page_no * self.page_size)
            page = fh.read(self.page_size)
            self.pool.put(key, page)
            if OBS.enabled:
                OBS.metrics.counter(
                    "store.paged.page_reads", permutation=perm_name
                ).inc()
        elif OBS.enabled:
            OBS.metrics.counter(
                "store.paged.pool_hits", permutation=perm_name
            ).inc()
        return page

    def _page_key_array(self, perm_name: str, page_no: int) -> np.ndarray:
        """One page decoded wholesale into an ``(n, 3)`` uint32 key array.

        The binary page layout (packed ``<III`` records, ``0xff`` padding)
        is exactly a little-endian uint32 matrix, so the decode is a single
        ``frombuffer`` + reshape, not a ``struct.unpack`` per record.
        """
        page = self._read_page(perm_name, page_no)
        words = np.frombuffer(page, dtype="<u4")
        words = words[: (words.size // 3) * 3]
        keys = words.reshape(-1, 3)
        return keys[keys[:, 0] != _MAX_ID]

    # ------------------------------------------------------------------ #
    # IdScanSource capability (vectorized execution substrate)
    # ------------------------------------------------------------------ #

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        """Matching id triples as streamed ``(n, 3)`` int64 batches.

        The fence index routes the bound prefix to its page run and whole
        pages are decoded at once. Pages coalesce while one more still fits
        in ``batch_size`` rows (an upper bound — consumers size LIMIT work
        off it); asked for one page's worth, each page's matches are handed
        on before the next page is read.
        """
        perm_name, prefix = self._plan(s, p, o)
        perm = self._perms[perm_name]
        if perm.page_count == 0:
            return
        low = prefix + (-1,) * (3 - len(prefix))
        high = prefix + (_MAX_ID + 1,) * (3 - len(prefix))
        unpermute = _UNPERMUTE[perm_name]
        pending: list[np.ndarray] = []
        pending_rows = 0
        start_page = max(0, bisect_right(perm.fences, low) - 1)
        for page_no in range(start_page, perm.page_count):
            if perm.fences[page_no] > high:
                break
            keys = self._page_key_array(perm_name, page_no)
            if prefix:
                mask = keys[:, 0] == prefix[0]
                for index, bound in enumerate(prefix[1:], start=1):
                    mask &= keys[:, index] == bound
                keys = keys[mask]
            if not len(keys):
                continue
            a, b, c = keys[:, 0], keys[:, 1], keys[:, 2]
            triples = np.stack(unpermute(a, b, c), axis=1).astype(np.int64)
            pending.append(triples)
            pending_rows += len(triples)
            if pending_rows + self.triples_per_page > batch_size:
                yield from _chunks(pending, batch_size)
                pending, pending_rows = [], 0
        if pending:
            yield from _chunks(pending, batch_size)

    def distinct_ids(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> np.ndarray:
        """Sorted unique ids at ``position`` over matches."""
        return distinct_ids_of(self.match_id_batches(s, p, o), position)

    def probe_ids(self, *probe) -> tuple[np.ndarray, np.ndarray]:
        """Batched point probes: one page-run scan per distinct key row."""
        return probe_ids_of(self, *probe)

    # ------------------------------------------------------------------ #
    # TripleSource protocol
    # ------------------------------------------------------------------ #

    def _plan(self, s: int | None, p: int | None, o: int | None) -> tuple[str, tuple[int, ...]]:
        """Choose the permutation whose sort order matches the bound prefix."""
        if s is not None:
            if p is not None:
                if o is not None:
                    return "spo", (s, p, o)
                return "spo", (s, p)
            if o is not None:
                return "osp", (o, s)
            return "spo", (s,)
        if p is not None:
            if o is not None:
                return "pos", (p, o)
            return "pos", (p,)
        if o is not None:
            return "osp", (o,)
        return "spo", ()

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        ids: list[int | None] = []
        for term in pattern:
            if term is None:
                ids.append(None)
            else:
                term_id = self.dictionary.lookup(term)
                if term_id is None:
                    return
                ids.append(term_id)
        # One page's worth of rows at a time: a consumer that stops early
        # has read the pages its triples came from and no other.
        decode = self.dictionary.decode_triple
        for batch in self.match_id_batches(*ids, self.triples_per_page):
            yield from map(decode, zip(*batch.T.tolist()))

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        if pattern == (None, None, None):
            return self._size
        return sum(1 for _ in self.triples(pattern))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def statistics(self) -> StatisticsSnapshot:
        """Statistics persisted in the meta header at :meth:`build` time.

        Opening a legacy (pre-statistics) store falls back to one full scan,
        after which the snapshot is cached for the lifetime of the handle —
        the store is read-only, so it can never go stale.
        """
        if self._stats is None:
            if self._raw_statistics is None:
                self._stats = compute_statistics(self)
            else:
                distinct_s, distinct_p, distinct_o, predicate_counts = self._raw_statistics
                decode = self.dictionary.decode
                self._stats = StatisticsSnapshot(
                    triple_count=self._size,
                    distinct_subjects=distinct_s,
                    distinct_predicates=distinct_p,
                    distinct_objects=distinct_o,
                    predicate_cardinalities={
                        decode(pid): card for pid, card in predicate_counts.items()
                    },
                )
        return self._stats

    @property
    def resident_bytes(self) -> int:
        """Bytes of triple data currently held in memory (the pool only)."""
        return self.pool.resident_bytes

    @property
    def disk_bytes(self) -> int:
        """Total size of the three permutation files on disk."""
        return sum(os.path.getsize(perm.path) for perm in self._perms.values())
