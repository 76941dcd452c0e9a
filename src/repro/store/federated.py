"""Federated triple access over multiple sources (Balloon Fusion [116]).

Survey §3.2: Balloon Synopsis "supports automatic information enhancement
of the local RDF data by accessing either remote SPARQL endpoints or
performing federated queries over endpoints". :class:`FederatedStore`
presents several :class:`~repro.store.base.TripleSource`s as one — pattern
queries fan out to every member, results are deduplicated, and per-source
statistics record where answers came from (the provenance panel such tools
show).

Members keep private term dictionaries, so a federation has no id space
of its own to scan. The SPARQL engine reads it like any other source that
only yields triples: through the encoding adaptor of
:func:`~repro.store.base.as_id_scan_source`, whose scratch dictionary
assigns ids to the deduplicated triples as they stream out of
:meth:`FederatedStore.triples` (same for
:class:`~repro.server.remote.RemoteEndpointSource`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..rdf.graph import TriplePattern
from ..rdf.terms import Triple
from .base import StatisticsSnapshot, StoreStatistics, TripleSource, compute_statistics

__all__ = ["FederatedStore", "SourceStats"]


@dataclass
class SourceStats:
    name: str
    queries: int = 0
    triples_returned: int = 0


class FederatedStore:
    """A deduplicating union view over named triple sources."""

    def __init__(self, sources: Sequence[tuple[str, TripleSource]]) -> None:
        if not sources:
            raise ValueError("need at least one source")
        names = [name for name, _ in sources]
        if len(set(names)) != len(names):
            raise ValueError("source names must be unique")
        self._sources = list(sources)
        self._statistics: StatisticsSnapshot | None = None
        self.stats: dict[str, SourceStats] = {
            name: SourceStats(name) for name, _ in sources
        }

    # -- TripleSource protocol -------------------------------------------------

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        seen: set[Triple] = set()
        for name, source in self._sources:
            stats = self.stats[name]
            stats.queries += 1
            for triple in source.triples(pattern):
                stats.triples_returned += 1
                if triple not in seen:
                    seen.add(triple)
                    yield triple

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        if len(self._sources) == 1:
            # Single source: no overlap to deduplicate, so delegate to the
            # member's own count() — which may be an index lookup rather
            # than the materializing scan the general path needs.
            name, source = self._sources[0]
            stats = self.stats[name]
            stats.queries += 1
            matched = source.count(pattern)
            stats.triples_returned += matched
            return matched
        return sum(1 for _ in self.triples(pattern))

    def __len__(self) -> int:
        return self.count()

    def statistics(self) -> StatisticsSnapshot:
        """Merged member statistics (an upper bound: overlap is not deduped).

        Members implementing :class:`StoreStatistics` contribute their cached
        snapshot; others are scanned once. The merge is cached until
        :meth:`add_source` changes the membership.
        """
        if self._statistics is None:
            snapshots = [
                source.statistics()
                if isinstance(source, StoreStatistics)
                else compute_statistics(source)
                for _, source in self._sources
            ]
            predicate_cards: dict = {}
            predicate_distincts: dict = {}
            for snapshot in snapshots:
                for predicate, card in snapshot.predicate_cardinalities.items():
                    predicate_cards[predicate] = predicate_cards.get(predicate, 0) + card
                for predicate, card in snapshot.predicate_distinct_objects.items():
                    predicate_distincts[predicate] = (
                        predicate_distincts.get(predicate, 0) + card
                    )
            self._statistics = StatisticsSnapshot(
                triple_count=sum(s.triple_count for s in snapshots),
                distinct_subjects=sum(s.distinct_subjects for s in snapshots),
                distinct_predicates=len(predicate_cards),
                distinct_objects=sum(s.distinct_objects for s in snapshots),
                predicate_cardinalities=predicate_cards,
                predicate_distinct_objects=predicate_distincts,
            )
        return self._statistics

    # -- provenance ------------------------------------------------------------

    def sources_of(self, triple: Triple) -> list[str]:
        """Which sources assert ``triple`` (the provenance question)."""
        found = []
        for name, source in self._sources:
            if any(True for _ in source.triples((triple[0], triple[1], triple[2]))):
                found.append(name)
        return found

    def members(self) -> list[tuple[str, TripleSource]]:
        """The named members, for capability probing — the sketch
        coordinator (:mod:`repro.server.sketch`) fans eligible aggregates
        out to each member and merges the returned sketch bundles."""
        return list(self._sources)

    @property
    def version(self) -> tuple | None:
        """The members' versions, or ``None`` when one of them has none."""
        versions = tuple(getattr(s, "version", None) for _, s in self._sources)
        return None if None in versions else versions

    def add_source(self, name: str, source: TripleSource) -> None:
        """Attach another endpoint at runtime (the 'enhancement' step)."""
        if name in self.stats:
            raise ValueError(f"source {name!r} already registered")
        self._sources.append((name, source))
        self._statistics = None
        self.stats[name] = SourceStats(name)
