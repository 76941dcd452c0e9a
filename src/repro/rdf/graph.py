"""The RDF graph: a set of triples with indexed pattern matching.

``Graph`` is the user-facing container of the substrate. It maintains three
hash indexes (S→P→O, P→O→S, O→S→P) so that any triple pattern — the basic
access path of every browser, facet panel, and SPARQL basic graph pattern in
the survey — is answered without a full scan.

For datasets beyond main memory, :mod:`repro.store` offers a dictionary-
encoded and disk-backed store exposing the same ``triples()`` protocol; all
higher layers are written against that protocol, not against ``Graph``
specifically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .namespace import NamespaceManager
from .terms import IRI, BNode, Literal, Predicate, RDFObject, Subject, Triple
from .vocab import RDF, RDFS, default_namespace_manager

__all__ = ["Graph", "TriplePattern"]

TriplePattern = tuple[Subject | None, Predicate | None, RDFObject | None]


class Graph:
    """An in-memory RDF graph with triple-pattern indexes.

    ``None`` acts as a wildcard in all pattern-matching APIs::

        g.triples((person, None, None))     # all properties of `person`
        g.triples((None, RDF.type, cls))    # all instances of `cls`
    """

    def __init__(
        self,
        triples: Iterable[Triple | tuple] | None = None,
        namespace_manager: NamespaceManager | None = None,
    ) -> None:
        self._spo: dict[Subject, dict[Predicate, set[RDFObject]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._pos: dict[Predicate, dict[RDFObject, set[Subject]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._osp: dict[RDFObject, dict[Subject, set[Predicate]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._size = 0
        self._stats = None  # cached StatisticsSnapshot, dropped on mutation
        self.version = 0  # effective writes so far: what answer caches stamp
        self.namespace_manager = namespace_manager or default_namespace_manager()
        if triples is not None:
            for triple in triples:
                self.add(triple)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple. Returns ``True`` if the graph changed."""
        s, p, o = triple
        _validate(s, p, o)
        objects = self._spo[s][p]
        if o in objects:
            return False
        objects.add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._size += 1
        self._stats = None
        self.version += 1
        return True

    def add_all(self, triples: Iterable[Triple | tuple]) -> int:
        """Insert many triples; returns the number actually added."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, pattern: TriplePattern | Triple) -> int:
        """Remove every triple matching ``pattern``; returns removal count."""
        victims = list(self.triples(pattern))
        for s, p, o in victims:
            self._spo[s][p].discard(o)
            if not self._spo[s][p]:
                del self._spo[s][p]
                if not self._spo[s]:
                    del self._spo[s]
            self._pos[p][o].discard(s)
            if not self._pos[p][o]:
                del self._pos[p][o]
                if not self._pos[p]:
                    del self._pos[p]
            self._osp[o][s].discard(p)
            if not self._osp[o][s]:
                del self._osp[o][s]
                if not self._osp[o]:
                    del self._osp[o]
        self._size -= len(victims)
        if victims:
            self._stats = None
            self.version += 1
        return len(victims)

    # ------------------------------------------------------------------ #
    # Pattern matching
    # ------------------------------------------------------------------ #

    def triples(self, pattern: TriplePattern | Triple = (None, None, None)) -> Iterator[Triple]:
        """Yield every triple matching ``pattern`` (``None`` = wildcard).

        The most selective index for the bound positions is chosen, so the
        cost is proportional to the size of the answer, not of the graph.
        """
        s, p, o = pattern
        if s is not None:
            by_pred = self._spo.get(s)
            if by_pred is None:
                return
            if p is not None:
                objects = by_pred.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield Triple(s, p, o)
                    return
                for obj in objects:
                    yield Triple(s, p, obj)
                return
            for pred, objects in by_pred.items():
                if o is not None:
                    if o in objects:
                        yield Triple(s, pred, o)
                    continue
                for obj in objects:
                    yield Triple(s, pred, obj)
            return
        if p is not None:
            by_obj = self._pos.get(p)
            if by_obj is None:
                return
            if o is not None:
                for subj in by_obj.get(o, ()):
                    yield Triple(subj, p, o)
                return
            for obj, subjects in by_obj.items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            by_subj = self._osp.get(o)
            if by_subj is None:
                return
            for subj, preds in by_subj.items():
                for pred in preds:
                    yield Triple(subj, pred, o)
            return
        for subj, by_pred in self._spo.items():
            for pred, objects in by_pred.items():
                for obj in objects:
                    yield Triple(subj, pred, obj)

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """Count matching triples without materializing them all (fast paths
        for the fully-unbound and single-bound cases)."""
        s, p, o = pattern
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is None and o is None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None and s is None and o is None:
            return sum(len(subjs) for subjs in self._pos.get(p, {}).values())
        if o is not None and s is None and p is None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return sum(1 for _ in self.triples(pattern))

    def statistics(self):
        """Cached store statistics (the SPARQL optimizer's cost input).

        Returns a :class:`repro.store.base.StatisticsSnapshot`; imported
        lazily because :mod:`repro.store` depends on this module.
        """
        if self._stats is None:
            from ..store.base import StatisticsSnapshot

            self._stats = StatisticsSnapshot(
                triple_count=self._size,
                distinct_subjects=len(self._spo),
                distinct_predicates=len(self._pos),
                distinct_objects=len(self._osp),
                predicate_cardinalities={
                    p: sum(len(subjs) for subjs in by_obj.values())
                    for p, by_obj in self._pos.items()
                },
            )
        return self._stats

    def __contains__(self, triple: Triple | tuple) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, ())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------ #
    # Convenience accessors (the browser layer's vocabulary)
    # ------------------------------------------------------------------ #

    def subjects(
        self, predicate: Predicate | None = None, object: RDFObject | None = None
    ) -> Iterator[Subject]:
        seen: set[Subject] = set()
        for s, _, _ in self.triples((None, predicate, object)):
            if s not in seen:
                seen.add(s)
                yield s

    def predicates(
        self, subject: Subject | None = None, object: RDFObject | None = None
    ) -> Iterator[Predicate]:
        seen: set[Predicate] = set()
        for _, p, _ in self.triples((subject, None, object)):
            if p not in seen:
                seen.add(p)
                yield p

    def objects(
        self, subject: Subject | None = None, predicate: Predicate | None = None
    ) -> Iterator[RDFObject]:
        seen: set[RDFObject] = set()
        for _, _, o in self.triples((subject, predicate, None)):
            if o not in seen:
                seen.add(o)
                yield o

    def value(
        self, subject: Subject | None = None, predicate: Predicate | None = None
    ) -> RDFObject | None:
        """The single object of ``(subject, predicate, ?)``, or ``None``."""
        for _, _, o in self.triples((subject, predicate, None)):
            return o
        return None

    def label(self, subject: Subject) -> str:
        """Human-readable label: ``rdfs:label`` if present, else local name."""
        value = self.value(subject, RDFS.label)
        if isinstance(value, Literal):
            return value.lexical
        if isinstance(subject, IRI):
            return subject.local_name or str(subject)
        return str(subject)

    def types_of(self, subject: Subject) -> set[IRI]:
        """The ``rdf:type`` classes of ``subject``."""
        return {o for o in self.objects(subject, RDF.type) if isinstance(o, IRI)}

    def instances_of(self, cls: IRI) -> Iterator[Subject]:
        """All subjects typed with ``cls``."""
        return self.subjects(RDF.type, cls)

    # ------------------------------------------------------------------ #
    # Set operations
    # ------------------------------------------------------------------ #

    def union(self, other: "Graph") -> "Graph":
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(self)
        result.add_all(other)
        return result

    def intersection(self, other: "Graph") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(t for t in small if t in large)
        return result

    def difference(self, other: "Graph") -> "Graph":
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(t for t in self if t not in other)
        return result

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def copy(self) -> "Graph":
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(self)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph with {self._size} triples>"


def _validate(s: object, p: object, o: object) -> None:
    if not isinstance(s, (IRI, BNode)):
        raise TypeError(f"triple subject must be IRI or BNode, got {type(s).__name__}")
    if not isinstance(p, IRI):
        raise TypeError(f"triple predicate must be IRI, got {type(p).__name__}")
    if not isinstance(o, (IRI, BNode, Literal)):
        raise TypeError(f"triple object must be an RDF term, got {type(o).__name__}")
