"""The survey's system-classification model.

Section 3 classifies WoD exploration/visualization systems into six
categories and compares them along feature dimensions (Tables 1 and 2).
This module defines that taxonomy as data types so the catalog
(:mod:`repro.catalog.data`) is machine-checkable and the matrices
(:mod:`repro.catalog.matrix`) are *generated*, not hand-copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Category", "DataType", "VisType", "Feature", "AppType", "SystemRecord"]


class Category(Enum):
    """The survey's six system categories (Sections 3.1-3.6)."""

    BROWSER = "Browsers & exploratory systems"
    GENERIC = "Generic visualization systems"
    DOMAIN = "Domain, vocabulary & device-specific systems"
    GRAPH = "Graph-based visualization systems"
    ONTOLOGY = "Ontology visualization systems"
    LIBRARY = "Visualization libraries"


class DataType(Enum):
    """Table 1's Data Types legend."""

    NUMERIC = "N"
    TEMPORAL = "T"
    SPATIAL = "S"
    HIERARCHICAL = "H"
    GRAPH = "G"


class VisType(Enum):
    """Table 1's Vis. Types legend."""

    BUBBLE = "B"
    CHART = "C"
    CIRCLES = "CI"
    GRAPH = "G"
    MAP = "M"
    PIE = "P"
    PARALLEL_COORDINATES = "PC"
    SCATTER = "S"
    STREAMGRAPH = "SG"
    TREEMAP = "T"
    TIMELINE = "TL"
    TREE = "TR"


class Feature(Enum):
    """The boolean feature columns of Tables 1 and 2."""

    RECOMMENDATION = "Recomm."
    PREFERENCES = "Preferences"
    STATISTICS = "Statistics"
    SAMPLING = "Sampling"
    AGGREGATION = "Aggregation"
    INCREMENTAL = "Incr."
    DISK = "Disk"
    KEYWORD = "Keyword"
    FILTER = "Filter"


class AppType(Enum):
    WEB = "Web"
    DESKTOP = "Desktop"
    MOBILE = "Mobile"
    SERVICE = "Service"
    LIBRARY = "Library"


@dataclass(frozen=True)
class SystemRecord:
    """One surveyed system with its published capabilities."""

    name: str
    year: int
    category: Category
    references: tuple[str, ...] = ()  # the survey's citation keys
    data_types: frozenset[DataType] = frozenset()
    vis_types: frozenset[VisType] = frozenset()
    features: frozenset[Feature] = frozenset()
    domain: str = "generic"
    app_type: AppType = AppType.WEB
    notes: str = ""

    def has(self, feature: Feature) -> bool:
        return feature in self.features

    def supports(self, data_type: DataType) -> bool:
        return data_type in self.data_types

    @property
    def data_type_code(self) -> str:
        """Table 1 cell form, e.g. ``N, T, S, H, G``."""
        order = [DataType.NUMERIC, DataType.TEMPORAL, DataType.SPATIAL,
                 DataType.HIERARCHICAL, DataType.GRAPH]
        return ", ".join(d.value for d in order if d in self.data_types)

    @property
    def vis_type_code(self) -> str:
        """Table 1 cell form, alphabetical as printed, e.g. ``C, M, T, TL``."""
        return ", ".join(sorted(v.value for v in self.vis_types))
