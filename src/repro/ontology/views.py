"""Ontology visualization views (survey §3.5).

Adapters from the extracted :class:`~repro.ontology.extract.OntologySummary`
to the three visual paradigms the survey distinguishes:

* **node-link** (VOWL [100], KC-Viz, OntoGraf): a
  :class:`~repro.graph.model.PropertyGraph` laid out with the layered
  (Sugiyama) layout;
* **geometric containment** (CropCircles [137]): a
  :class:`~repro.viz.cropcircles.HierarchyNode` tree;
* **hybrid matrices** (OntoTrix [14]): instance graph + class communities
  through :mod:`repro.viz.nodetrix`.
"""

from __future__ import annotations

from ..graph.model import PropertyGraph
from ..rdf.terms import IRI
from ..viz.cropcircles import HierarchyNode
from .extract import OntologySummary

__all__ = ["ontology_graph", "ontology_tree", "vowl_spec"]


def ontology_graph(summary: OntologySummary) -> PropertyGraph:
    """Node-link view: classes as nodes, subclass edges, property links."""
    graph = PropertyGraph()
    for iri, info in summary.classes.items():
        graph.add_node(iri)
        graph.set_attribute(iri, "label", info.label)
        graph.set_attribute(iri, "instances", info.instance_count)
    for iri, info in summary.classes.items():
        for parent in info.parents:
            graph.add_edge(iri, parent, label="subClassOf")
    for prop, domain, range_ in summary.properties:
        if domain is not None and range_ is not None and domain != range_:
            if domain in summary.classes and range_ in summary.classes:
                graph.add_edge(domain, range_, label=str(prop))
    return graph


def ontology_tree(summary: OntologySummary, max_depth: int = 10) -> HierarchyNode:
    """Containment view input: the class forest under one root.

    Multi-parent classes appear under their first parent only (containment
    is a tree); multiple roots hang under a synthetic "Ontology" root.
    """
    def build(iri: IRI, depth: int, seen: frozenset[IRI]) -> HierarchyNode:
        info = summary.classes[iri]
        children = []
        if depth < max_depth:
            for child in info.children:
                child_info = summary.classes.get(child)
                if child_info is None or child in seen:
                    continue
                if child_info.parents and child_info.parents[0] != iri:
                    continue  # shown under its primary parent
                children.append(build(child, depth + 1, seen | {child}))
        return HierarchyNode(label=info.label, children=children)

    roots = [build(r, 1, frozenset({r})) for r in summary.roots]
    if len(roots) == 1:
        return roots[0]
    return HierarchyNode(label="Ontology", children=roots)


def vowl_spec(summary: OntologySummary) -> dict:
    """A VOWL-like declarative description (class/property lists with
    visual hints), serializable to JSON for external renderers."""
    return {
        "classes": [
            {
                "iri": str(info.iri),
                "label": info.label,
                "instances": info.instance_count,
                "radius_hint": 10 + min(info.instance_count, 100) ** 0.5,
            }
            for info in sorted(summary.classes.values(), key=lambda i: str(i.iri))
        ],
        "subclass_edges": [
            {"child": str(iri), "parent": str(parent)}
            for iri, info in sorted(summary.classes.items())
            for parent in info.parents
        ],
        "properties": [
            {
                "iri": str(prop),
                "domain": str(domain) if domain else None,
                "range": str(range_) if range_ else None,
            }
            for prop, domain, range_ in summary.properties
        ],
    }
