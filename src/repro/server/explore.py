"""The exploration routes answered as JSON: ``/facets`` (the faceted
browser's summary of the served dataset) and ``/statistics`` (the store's
:class:`~repro.store.base.StatisticsSnapshot`, what
:class:`~repro.server.remote.RemoteEndpointSource` reads so a federating
client can *plan* against this endpoint without scanning it).

Plain functions of the server and the request context, run on a worker;
each returns ``(status, content type, body)``. ``/facets`` answers are
kept in the server's one answer cache (``/describe`` shares it with
``DESCRIBE`` queries and lives beside ``/sparql``).
"""

from __future__ import annotations

from collections.abc import Mapping

from ..explore.facets import FacetedBrowser
from ..sparql.results import term_to_json
from ..store.base import StoreStatistics, compute_statistics
from .probes import int_param, json_reply


def facets(server, ctx):
    max_values = int_param(ctx.request, "max_values", 25)
    min_count = int_param(ctx.request, "min_count", 1)

    def compute():
        browser = FacetedBrowser(server.store, engine=ctx.engine)
        found = browser.facets(max_values=max_values, min_count=min_count)
        return len(found), json_reply({"focus": len(browser), "facets": [
            {
                "predicate": str(facet.predicate),
                "cardinality": facet.cardinality,
                "values": [
                    {"term": term_to_json(value.value), "label": value.label,
                     "count": value.count}
                    for value in facet.values
                ],
            }
            for facet in found
        ]})[1:]

    key = f"/facets?max_values={max_values}&min_count={min_count}"
    answer, hit = server.answers.remember(key, "FACETS", compute)
    if hit:
        ctx.headers["X-Repro-Cache"] = "hit"
    return (200, *answer.bodies[None])


def statistics(server, ctx):
    store = server.store
    if isinstance(store, StoreStatistics):
        snapshot = store.statistics()
    else:
        snapshot = compute_statistics(store)
    # Counts as they are, per-predicate maps keyed by the IRI's text.
    payload = {
        name: ({str(key): count for key, count in value.items()}
               if isinstance(value, Mapping) else value)
        for name, value in vars(snapshot).items()
    }
    payload["store_version"] = getattr(store, "version", None)
    return json_reply(payload)
