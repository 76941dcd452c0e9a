"""CropCircles: geometric-containment class-hierarchy view (Wang & Parsia [137]).

The survey's Section 3.5 contrasts node-link ontology views with
CropCircles, which "uses a geometric containment approach, representing the
class hierarchy as a set of concentric circles": a class is a circle, its
subclasses are smaller circles nested inside, and circle area conveys
subtree size at a glance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .charts import PALETTE
from .svg import SVGCanvas

__all__ = ["HierarchyNode", "CircleLayout", "layout_cropcircles", "render_cropcircles"]


@dataclass
class HierarchyNode:
    """Input: a labelled tree (e.g. an rdfs:subClassOf hierarchy)."""

    label: str
    children: list["HierarchyNode"] = field(default_factory=list)

    @property
    def subtree_size(self) -> int:
        return 1 + sum(child.subtree_size for child in self.children)


@dataclass(frozen=True)
class CircleLayout:
    """Output: one circle per class."""

    cx: float
    cy: float
    radius: float
    label: str
    depth: int


def _radius(node: HierarchyNode) -> float:
    """Relative radius: area ∝ subtree size."""
    return math.sqrt(node.subtree_size)


def _place(
    node: HierarchyNode, cx: float, cy: float, radius: float, depth: int,
    out: list[CircleLayout],
) -> None:
    out.append(CircleLayout(cx, cy, radius, node.label, depth))
    children = sorted(node.children, key=_radius, reverse=True)
    if not children:
        return
    child_weights = [_radius(c) for c in children]
    total = sum(child_weights)
    inner = radius * 0.8  # containment inset
    if len(children) == 1:
        _place(children[0], cx, cy, inner * 0.9, depth + 1, out)
        return
    # Children sit on a ring inside the parent, sized proportionally but
    # capped so neighbours don't overlap.
    ring = inner * 0.55
    angle = 0.0
    for child, weight in zip(children, child_weights):
        share = weight / total
        child_radius = min(inner - ring, ring * math.sin(math.pi * share) * 1.6)
        child_radius = max(child_radius, inner * 0.08)
        ccx = cx + ring * math.cos(angle)
        ccy = cy + ring * math.sin(angle)
        _place(child, ccx, ccy, child_radius, depth + 1, out)
        angle += 2 * math.pi * share


def layout_cropcircles(
    root: HierarchyNode, size: float = 600.0
) -> list[CircleLayout]:
    """Nested-circle layout; the root circle fills the canvas."""
    circles: list[CircleLayout] = []
    _place(root, size / 2, size / 2, size / 2 * 0.95, 0, circles)
    return circles


def render_cropcircles(root: HierarchyNode, size: float = 600.0) -> str:
    """Layout + SVG rendering, depth-shaded."""
    canvas = SVGCanvas(size, size, background="white")
    for circle in layout_cropcircles(root, size):
        canvas.circle(
            circle.cx, circle.cy, circle.radius,
            fill=PALETTE[circle.depth % len(PALETTE)],
            stroke="white",
            opacity=0.45,
            title=circle.label,
        )
        if circle.radius > 24:
            canvas.text(
                circle.cx, circle.cy - circle.radius + 12, circle.label[:20],
                size=10, anchor="middle",
            )
    return canvas.to_string()
