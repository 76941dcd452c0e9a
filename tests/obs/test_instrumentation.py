"""Every public exploration/graph/viz entry point emits a classed span.

The acceptance bar for the always-on interaction layer: with tracing
enabled, each instrumented operation produces exactly the expected span
tagged ``interaction_class``; with tracing disabled, budget accounting
and its query-log records still happen.
"""

import pytest

from repro.explore import (
    ExplorationSession,
    FacetedBrowser,
    KeywordIndex,
    NeighborhoodExplorer,
    OperationKind,
    find_relationships,
    relationship_graph,
)
from repro.explore.session import interaction_class_of
from repro.graph.layout import (
    circular_layout,
    fruchterman_reingold,
    grid_layout,
    layered_layout,
)
from repro.graph.lod import MultiScaleView
from repro.graph.model import PropertyGraph
from repro.graph.sampling import (
    forest_fire_sample,
    random_edge_sample,
    random_node_sample,
)
from repro.graph.spatial import Rect
from repro.obs import BATCH, INTERACTIVE, NAVIGATION, OBS
from repro.rdf import Graph, IRI, Literal, parse_turtle
from repro.viz.dashboard import Panel, compose_dashboard
from repro.viz.graphview import render_node_link

EX = "http://example.org/"

DATA = """
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:athens a ex:City ; rdfs:label "Athens" ; ex:country "Greece" .
ex:patras a ex:City ; rdfs:label "Patras" ; ex:country "Greece" .
ex:lyon a ex:City ; rdfs:label "Lyon" ; ex:country "France" .
ex:greece a ex:Country ; rdfs:label "Greece" .
ex:athens ex:locatedIn ex:greece .
ex:patras ex:locatedIn ex:greece .
"""


@pytest.fixture
def store():
    return Graph(parse_turtle(DATA))


@pytest.fixture
def graph():
    g = PropertyGraph()
    for i in range(12):
        g.add_edge(f"n{i}", f"n{(i + 1) % 12}")
        g.add_edge(f"n{i}", f"n{(i + 3) % 12}")
    return g


def classed_spans() -> dict[str, str]:
    """``{span name: interaction_class}`` of everything traced so far,
    including interactions nested inside other interactions' spans."""
    return {
        span.name: span.attributes["interaction_class"]
        for root in OBS.tracer.recorder.spans()
        for span in root.walk()
        if "interaction_class" in span.attributes
    }


def ex(name: str) -> IRI:
    return IRI(EX + name)


class TestExploreSpans:
    def test_facets(self, store):
        OBS.configure(enabled=True)
        browser = FacetedBrowser(store)
        browser.facets()
        browser.facet(ex("country"))
        browser.class_facet()
        browser.select(ex("country"), Literal("Greece"))
        browser.deselect_last()
        browser.pivot(ex("locatedIn"))
        spans = classed_spans()
        assert spans["facets.summarize"] == INTERACTIVE
        assert spans["facets.facet"] == INTERACTIVE
        assert spans["facets.class_facet"] == INTERACTIVE
        assert spans["facets.select"] == INTERACTIVE
        assert spans["facets.deselect_last"] == NAVIGATION
        assert spans["facets.pivot"] == NAVIGATION

    def test_expansion(self, store):
        OBS.configure(enabled=True)
        explorer = NeighborhoodExplorer(store)
        explorer.start(ex("athens"))
        explorer.expand(ex("greece"))
        explorer.collapse(ex("greece"))
        spans = classed_spans()
        assert spans["explore.expand.start"] == NAVIGATION
        assert spans["explore.expand"] == INTERACTIVE
        assert spans["explore.collapse"] == INTERACTIVE

    def test_relfinder(self, store):
        OBS.configure(enabled=True)
        paths = find_relationships(store, ex("athens"), ex("patras"))
        relationship_graph(paths)
        spans = classed_spans()
        assert spans["explore.relfinder"] == NAVIGATION
        assert spans["explore.relfinder.graph"] == INTERACTIVE

    def test_keyword(self, store):
        OBS.configure(enabled=True)
        index = KeywordIndex(store)
        index.search("athens")
        spans = classed_spans()
        assert spans["keyword.index_store"] == BATCH
        assert spans["keyword.search"] == INTERACTIVE

    def test_session_record_and_replay(self):
        OBS.configure(enabled=True)
        session = ExplorationSession(user="u1")
        session.record(OperationKind.OVERVIEW)
        session.record(OperationKind.DRILL_DOWN, target="ex:City")
        session.replay(lambda op: None)
        spans = classed_spans()
        assert spans["session.overview"] == INTERACTIVE
        assert spans["session.drill_down"] == NAVIGATION
        assert spans["session.replay.overview"] == INTERACTIVE
        assert spans["session.replay.drill_down"] == NAVIGATION

    def test_every_kind_has_a_class(self):
        for kind in OperationKind:
            assert interaction_class_of(kind) in (INTERACTIVE, NAVIGATION)


class TestGraphSpans:
    def test_layouts(self, graph):
        OBS.configure(enabled=True)
        fruchterman_reingold(graph, iterations=2)
        circular_layout(graph)
        layered_layout(graph)
        grid_layout(graph)
        spans = classed_spans()
        assert spans["graph.layout.fruchterman_reingold"] == NAVIGATION
        assert spans["graph.layout.circular"] == INTERACTIVE
        assert spans["graph.layout.layered"] == NAVIGATION
        assert spans["graph.layout.grid"] == INTERACTIVE

    def test_sampling(self, graph):
        OBS.configure(enabled=True)
        random_node_sample(graph, 5)
        random_edge_sample(graph, 5)
        forest_fire_sample(graph, 5)
        spans = classed_spans()
        assert spans["graph.sampling.random_node"] == NAVIGATION
        assert spans["graph.sampling.random_edge"] == NAVIGATION
        assert spans["graph.sampling.forest_fire"] == NAVIGATION

    def test_lod(self, graph):
        OBS.configure(enabled=True)
        view = MultiScaleView(graph, max_elements_per_view=10,
                              layout_iterations=2)
        view.window_query(Rect(0.0, 0.0, 1000.0, 1000.0))
        view.members_of(min(1, view.height - 1), 0)
        spans = classed_spans()
        assert spans["graph.lod.build"] == BATCH
        assert spans["graph.lod.level_for"] == INTERACTIVE
        assert spans["graph.lod.window_query"] == INTERACTIVE
        assert spans["graph.lod.members_of"] == INTERACTIVE
        window = next(
            span for span in OBS.tracer.recorder.spans()
            if span.name == "graph.lod.window_query"
        )
        assert "level" in window.attributes
        assert "elements" in window.attributes


class TestVizSpans:
    def test_graphview_and_dashboard(self, graph):
        OBS.configure(enabled=True)
        svg = render_node_link(graph, circular_layout(graph))
        compose_dashboard([Panel(svg, "graph")])
        spans = classed_spans()
        assert spans["viz.graphview.render"] == NAVIGATION
        assert spans["viz.dashboard.compose"] == NAVIGATION


class TestDisabledModeStillAccounts:
    def test_budget_and_flight_without_tracing(self, store):
        assert not OBS.enabled
        browser = FacetedBrowser(store)
        browser.select(ex("country"), Literal("Greece"))
        browser.pivot(ex("locatedIn"))
        assert OBS.tracer.recorder.spans() == []
        report = OBS.budgets.report()
        assert report.for_class(INTERACTIVE).count >= 1
        assert report.for_class(NAVIGATION).count >= 1
        names = [record.route for record in OBS.querylog.records()]
        assert "facets.select" in names
        assert "facets.pivot" in names
