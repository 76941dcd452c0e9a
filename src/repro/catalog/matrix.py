"""Feature-matrix generation: regenerating the survey's Tables 1 and 2.

The matrices are *derived* from the structured catalog, so a test can
assert every cell and the benchmark can print the same rows the paper
shows. Taxonomy queries (counts per category/feature/year) back the
Discussion-section claims ("none of the systems, with the exceptions of
SynopsViz and VizBoard, adopt approximation techniques").
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .data import ALL_SYSTEMS, TABLE1_SYSTEMS, TABLE2_SYSTEMS
from .model import Category, Feature, SystemRecord

__all__ = [
    "render_matrix",
    "render_table1",
    "render_table2",
    "systems_with_feature",
    "category_counts",
    "feature_adoption",
    "approximation_gap",
]

_TABLE1_FEATURES = (
    Feature.RECOMMENDATION,
    Feature.PREFERENCES,
    Feature.STATISTICS,
    Feature.SAMPLING,
    Feature.AGGREGATION,
    Feature.INCREMENTAL,
    Feature.DISK,
)

_TABLE2_FEATURES = (
    Feature.KEYWORD,
    Feature.FILTER,
    Feature.SAMPLING,
    Feature.AGGREGATION,
    Feature.INCREMENTAL,
    Feature.DISK,
)


def render_matrix(
    systems: Sequence[SystemRecord],
    features: Sequence[Feature],
    include_types: bool = False,
    check: str = "x",
) -> str:
    """A fixed-width text matrix: one row per system, one column per feature
    plus Year / (Data/Vis types) / Domain / App Type."""
    headers = ["System", "Year"]
    if include_types:
        headers += ["Data Types", "Vis. Types"]
    headers += [f.value for f in features] + ["Domain", "App Type"]

    rows: list[list[str]] = []
    for system in systems:
        row = [system.name, str(system.year)]
        if include_types:
            row += [system.data_type_code, system.vis_type_code]
        row += [check if system.has(f) else "" for f in features]
        row += [system.domain, system.app_type.value]
        rows.append(row)

    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1() -> str:
    """Table 1: Generic Visualization Systems, exactly the paper's rows."""
    return render_matrix(TABLE1_SYSTEMS, _TABLE1_FEATURES, include_types=True)


def render_table2() -> str:
    """Table 2: Graph-based Visualization Systems, exactly the paper's rows."""
    return render_matrix(TABLE2_SYSTEMS, _TABLE2_FEATURES, include_types=False)


# --------------------------------------------------------------------------- #
# Taxonomy queries (the Discussion section's aggregate claims)
# --------------------------------------------------------------------------- #


def systems_with_feature(
    feature: Feature, systems: Iterable[SystemRecord] = ALL_SYSTEMS
) -> list[SystemRecord]:
    return [s for s in systems if s.has(feature)]


def category_counts(systems: Iterable[SystemRecord] = ALL_SYSTEMS) -> dict[Category, int]:
    return dict(Counter(s.category for s in systems))


def feature_adoption(
    systems: Sequence[SystemRecord], features: Sequence[Feature]
) -> dict[Feature, float]:
    """Fraction of ``systems`` having each feature."""
    n = len(systems)
    if n == 0:
        return {f: 0.0 for f in features}
    return {
        f: sum(1 for s in systems if s.has(f)) / n for f in features
    }


def approximation_gap() -> dict[str, object]:
    """Quantify the Discussion's headline finding: among the generic
    systems, who adopts approximation (sampling/aggregation), incremental
    computation, or disk-based operation?"""
    def names(feature: Feature) -> list[str]:
        return [s.name for s in TABLE1_SYSTEMS if s.has(feature)]

    approximation = sorted(set(names(Feature.SAMPLING)) | set(names(Feature.AGGREGATION)))
    return {
        "generic_system_count": len(TABLE1_SYSTEMS),
        "approximation": approximation,
        "incremental": names(Feature.INCREMENTAL),
        "disk": names(Feature.DISK),
        "graph_systems_with_memory_independence": [
            s.name for s in TABLE2_SYSTEMS if s.has(Feature.DISK)
        ],
    }
