"""VoID-style dataset statistics (LODeX's source summaries [19]).

Survey §3.4: LODeX "generates a representative summary of a WoD source ...
accompanied by statistical and structural information". The W3C VoID
vocabulary is the standard carrier for such statistics; this module
computes them from any triple source and can emit them back as RDF.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal
from ..rdf.vocab import RDF, VOID
from ..store.base import TripleSource

__all__ = ["DatasetStatistics", "compute_statistics"]


@dataclass
class DatasetStatistics:
    """The VoID core statistics plus per-class/per-property breakdowns."""

    triples: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    properties: int = 0
    classes: int = 0
    entities: int = 0  # distinct IRI subjects
    class_partition: dict[IRI, int] = field(default_factory=dict)
    property_partition: dict[IRI, int] = field(default_factory=dict)
    literal_count: int = 0
    blank_node_count: int = 0

    def to_rdf(self, dataset_iri: IRI | None = None) -> Graph:
        """Serialize as a ``void:Dataset`` description."""
        dataset = dataset_iri or IRI("urn:repro:dataset")
        graph = Graph()
        graph.add((dataset, RDF.type, VOID.Dataset))
        graph.add((dataset, VOID.triples, Literal(self.triples)))
        graph.add((dataset, VOID.distinctSubjects, Literal(self.distinct_subjects)))
        graph.add((dataset, VOID.distinctObjects, Literal(self.distinct_objects)))
        graph.add((dataset, VOID.properties, Literal(self.properties)))
        graph.add((dataset, VOID.classes, Literal(self.classes)))
        graph.add((dataset, VOID.entities, Literal(self.entities)))
        for cls, count in sorted(self.class_partition.items()):
            node = BNode()
            graph.add((dataset, VOID.classPartition, node))
            graph.add((node, IRI(str(VOID) + "class"), cls))
            graph.add((node, VOID.entities, Literal(count)))
        for prop, count in sorted(self.property_partition.items()):
            node = BNode()
            graph.add((dataset, VOID.propertyPartition, node))
            graph.add((node, VOID.property, prop))
            graph.add((node, VOID.triples, Literal(count)))
        return graph

    def summary_text(self, top: int = 5) -> str:
        """Human-readable digest (the LODeX side panel)."""
        lines = [
            f"triples: {self.triples:,}",
            f"entities: {self.entities:,} "
            f"({self.distinct_subjects:,} subjects, {self.distinct_objects:,} objects)",
            f"classes: {self.classes}, properties: {self.properties}",
        ]
        if self.class_partition:
            lines.append("top classes:")
            ranked = sorted(self.class_partition.items(), key=lambda kv: -kv[1])
            for cls, count in ranked[:top]:
                lines.append(f"  {cls.local_name or cls}: {count:,}")
        if self.property_partition:
            lines.append("top properties:")
            ranked = sorted(self.property_partition.items(), key=lambda kv: -kv[1])
            for prop, count in ranked[:top]:
                lines.append(f"  {prop.local_name or prop}: {count:,}")
        return "\n".join(lines)


def compute_statistics(store: TripleSource) -> DatasetStatistics:
    """One pass over the store; O(distinct terms) memory."""
    subjects: set = set()
    objects: set = set()
    entity_subjects: set = set()
    property_counts: Counter = Counter()
    class_counts: Counter = Counter()
    literal_count = 0
    bnode_count = 0
    total = 0
    for s, p, o in store.triples((None, None, None)):
        total += 1
        subjects.add(s)
        objects.add(o)
        property_counts[p] += 1
        if isinstance(s, IRI):
            entity_subjects.add(s)
        if isinstance(s, BNode):
            bnode_count += 1
        if isinstance(o, Literal):
            literal_count += 1
        elif isinstance(o, BNode):
            bnode_count += 1
        if p == RDF.type and isinstance(o, IRI):
            class_counts[o] += 1
    return DatasetStatistics(
        triples=total,
        distinct_subjects=len(subjects),
        distinct_objects=len(objects),
        properties=len(property_counts),
        classes=len(class_counts),
        entities=len(entity_subjects),
        class_partition=dict(class_counts),
        property_partition=dict(property_counts),
        literal_count=literal_count,
        blank_node_count=bnode_count,
    )
