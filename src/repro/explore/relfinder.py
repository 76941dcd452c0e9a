"""Relationship discovery between resources (RelFinder [58]).

Survey §3.4: "RelFinder is a Web-based tool that offers interactive
discovery and visualization of relationships (i.e., connections) between
selected WoD resources" — given two (or more) entities, find the property
paths linking them and draw the connecting subgraph.

Implemented as bidirectional BFS over the resource-to-resource triples
(edges traversed in both directions, as RelFinder does), returning typed
paths and the union subgraph ready for node-link rendering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..graph.model import PropertyGraph
from ..obs import INTERACTIVE, NAVIGATION, OBS, track
from ..rdf.terms import IRI, BNode, Subject
from ..store.base import TripleSource

__all__ = ["RelationStep", "RelationPath", "find_relationships", "relationship_graph"]


@dataclass(frozen=True)
class RelationStep:
    """One hop: ``source --predicate--> target`` (``inverse`` if traversed
    against the triple's direction)."""

    source: Subject
    predicate: IRI
    target: Subject
    inverse: bool = False

    def describe(self) -> str:
        arrow = "<--" if self.inverse else "-->"
        name = self.predicate.local_name or str(self.predicate)
        return f"{_label(self.source)} {arrow}[{name}] {_label(self.target)}"


@dataclass(frozen=True)
class RelationPath:
    """A connection: an ordered chain of steps from start to end."""

    steps: tuple[RelationStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def nodes(self) -> list[Subject]:
        if not self.steps:
            return []
        return [self.steps[0].source] + [step.target for step in self.steps]

    def describe(self) -> str:
        return "  ".join(step.describe() for step in self.steps)


def _label(resource: Subject) -> str:
    if isinstance(resource, IRI):
        return resource.local_name or str(resource)
    return str(resource)


def _neighbors(store: TripleSource, node: Subject):
    """(neighbor, predicate, inverse) pairs, both edge directions."""
    for _, p, o in store.triples((node, None, None)):
        if isinstance(o, (IRI, BNode)):
            yield o, p, False
    for s, p, _ in store.triples((None, None, node)):
        yield s, p, True


def find_relationships(
    store: TripleSource,
    start: Subject,
    end: Subject,
    max_length: int = 4,
    max_paths: int = 10,
) -> list[RelationPath]:
    """Shortest-first property paths connecting ``start`` and ``end``.

    BFS over the undirected resource graph; paths never revisit a node
    (RelFinder's cycle rule). Returns at most ``max_paths`` paths of at
    most ``max_length`` hops, shortest first, deterministic order.
    """
    with OBS.interaction(
        "explore.relfinder", NAVIGATION, start=str(start), end=str(end)
    ) as act:
        paths = _find_relationships(store, start, end, max_length, max_paths)
        act.set_attribute("paths", len(paths))
        return paths


def _find_relationships(
    store: TripleSource,
    start: Subject,
    end: Subject,
    max_length: int,
    max_paths: int,
) -> list[RelationPath]:
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if max_paths < 1:
        raise ValueError("max_paths must be >= 1")
    if start == end:
        return []
    paths: list[RelationPath] = []
    queue: deque[tuple[Subject, tuple[RelationStep, ...], frozenset]] = deque(
        [(start, (), frozenset({start}))]
    )
    while queue and len(paths) < max_paths:
        node, steps, visited = queue.popleft()
        if len(steps) >= max_length:
            continue
        neighbors = sorted(
            _neighbors(store, node), key=lambda item: (str(item[0]), str(item[1]), item[2])
        )
        for neighbor, predicate, inverse in neighbors:
            if neighbor in visited:
                continue
            step = RelationStep(node, predicate, neighbor, inverse)
            if neighbor == end:
                paths.append(RelationPath(steps + (step,)))
                if len(paths) >= max_paths:
                    break
                continue
            queue.append((neighbor, steps + (step,), visited | {neighbor}))
    return paths


@track("explore.relfinder.graph", INTERACTIVE)
def relationship_graph(paths: list[RelationPath]) -> PropertyGraph:
    """The union subgraph of the found paths (RelFinder's display graph)."""
    graph = PropertyGraph()
    for path in paths:
        for step in path.steps:
            graph.add_edge(step.source, step.target, label=str(step.predicate))
    return graph
