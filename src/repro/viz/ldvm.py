"""The Linked Data Visualization Model pipeline (Brunetti et al. [29]).

LDVM structures WoD visualization as four explicit stages:

1. **Source data** — an RDF triple source (any
   :class:`~repro.store.base.TripleSource`);
2. **Analytical abstraction** — a SPARQL query or extractor lifting the
   source into a typed :class:`~repro.viz.datamodel.DataTable`;
3. **Visualization abstraction** — a chart kind plus field bindings
   (possibly recommended automatically, Section 3.2);
4. **View** — the rendered SVG.

:class:`LDVMPipeline` makes the stages first-class so they can be swapped
independently — the model's whole point ("enables the connection of
different datasets with various kinds of visualizations in a dynamic way").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..sparql.eval import QueryEngine
from ..store.base import TripleSource
from . import charts
from .datamodel import DataTable

__all__ = ["VisualizationAbstraction", "LDVMPipeline", "CHART_RENDERERS"]

CHART_RENDERERS: dict[str, Callable] = {
    "bar": charts.bar_chart,
    "line": charts.line_chart,
    "area": charts.area_chart,
    "pie": charts.pie_chart,
    "scatter": charts.scatter_plot,
    "bubble": charts.bubble_chart,
}


@dataclass(frozen=True)
class VisualizationAbstraction:
    """Stage 3: a chart kind and its data-to-channel bindings."""

    chart: str  # key into CHART_RENDERERS
    bindings: dict[str, str] = field(default_factory=dict)  # channel -> field

    def __post_init__(self) -> None:
        if self.chart not in CHART_RENDERERS:
            raise ValueError(
                f"unknown chart {self.chart!r}; choose from {sorted(CHART_RENDERERS)}"
            )


@dataclass
class StageRecord:
    """Provenance of one pipeline run (what LDVM calls the workflow)."""

    source_triples: int = 0
    abstraction_rows: int = 0
    abstraction_fields: list[str] = field(default_factory=list)
    chart: str = ""
    view_bytes: int = 0


class LDVMPipeline:
    """A configured source→abstraction→visualization→view workflow."""

    def __init__(self, store: TripleSource) -> None:
        self.store = store
        self.engine = QueryEngine(store)
        self.record = StageRecord()

    # stage 2 -----------------------------------------------------------------

    def analytical_abstraction(self, sparql: str) -> DataTable:
        """Lift a SELECT result into a typed table."""
        result = self.engine.query(sparql)
        table = DataTable.from_rows(result.to_dicts())
        self.record.source_triples = len(self.store)
        self.record.abstraction_rows = len(table)
        self.record.abstraction_fields = table.field_names
        return table

    # stage 3 + 4 ---------------------------------------------------------------

    def view(
        self,
        table: DataTable,
        abstraction: VisualizationAbstraction,
        config: charts.ChartConfig | None = None,
    ) -> str:
        """Bind the table to the chart and render the SVG view."""
        renderer = CHART_RENDERERS[abstraction.chart]
        kwargs = dict(abstraction.bindings)
        if config is not None:
            kwargs["config"] = config
        svg = renderer(table, **kwargs)
        self.record.chart = abstraction.chart
        self.record.view_bytes = len(svg)
        return svg

    def run(
        self,
        sparql: str,
        abstraction: VisualizationAbstraction,
        config: charts.ChartConfig | None = None,
    ) -> str:
        """All four stages in one call."""
        return self.view(self.analytical_abstraction(sparql), abstraction, config)
