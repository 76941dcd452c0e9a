"""Storage layer: dictionary encoding, indexed memory store, disk paging,
and adaptive (cracking) indexes.

Pick the store that matches the scale:

* :class:`~repro.rdf.graph.Graph` — small graphs, maximal convenience.
* :class:`MemoryStore` — dictionary-encoded; three sorted int64 runs
  (SPO/POS/OSP, 96 B per triple) in an immutable generation, so every
  scan and count is a binary search plus an array slice, and a join probe
  (``probe_ids``) is a vectorised search over one run for every key of a
  batch at once — for a star, a gather through the predicate's adjacency.
  ``add`` buffers into a delta that the next read folds in.
* :class:`PagedTripleStore` — disk-resident with an LRU buffer pool;
  resident memory is O(pool), the survey's Section 4 recommendation.
* :class:`CrackedColumn` — adaptive numeric index for exploration sessions
  with no preprocessing window (Section 2's dynamic setting).
* :class:`CrackingTripleStore` — the same sorted-run core read as adaptive
  indexing: POS and OSP are sorted by the first query that needs them, and
  ``sorts_paid`` counts what a session has cost.

Stores that can serve sorted id runs implement the :class:`IdScanSource`
capability themselves; :func:`as_id_scan_source` gives every other source
(federation, remote endpoints, plain graphs) the same surface through an
encoding adaptor, so the SPARQL engine (:mod:`repro.sparql.vectorized`)
runs every BGP on id batches, each join stage one ``probe_ids`` call per
batch. A source with no run to search (the adaptor, the paged store)
probes through :func:`~repro.store.base.probe_ids_of`, one scan per
distinct key.
"""

from .base import (
    IdScanSource,
    StatisticsSnapshot,
    StoreStatistics,
    TripleSource,
    as_id_scan_source,
    compute_statistics,
)
from .cracking import CrackedColumn, CrackingTripleStore, FullSortColumn, ScanColumn
from .dictionary import TermDictionary, decode_term, encode_term
from .federated import FederatedStore, SourceStats
from .memory import MemoryStore
from .paged import BufferPoolStats, LRUBufferPool, PagedTripleStore

__all__ = [
    "BufferPoolStats",
    "CrackedColumn",
    "CrackingTripleStore",
    "FederatedStore",
    "FullSortColumn",
    "IdScanSource",
    "LRUBufferPool",
    "MemoryStore",
    "PagedTripleStore",
    "ScanColumn",
    "SourceStats",
    "StatisticsSnapshot",
    "StoreStatistics",
    "TermDictionary",
    "TripleSource",
    "as_id_scan_source",
    "compute_statistics",
    "decode_term",
    "encode_term",
]
