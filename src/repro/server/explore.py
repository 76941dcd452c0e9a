"""The exploration routes answered as JSON: ``/facets`` (the faceted
browser's summary of the served dataset) and ``/statistics`` (the store's
:class:`~repro.store.base.StatisticsSnapshot`, what
:class:`~repro.server.remote.RemoteEndpointSource` reads so a federating
client can *plan* against this endpoint without scanning it).

Plain functions of the server and the request context, run on a worker;
each returns ``(status, content type, body)``. (``/describe`` shares the
answer cache with ``DESCRIBE`` queries and lives beside ``/sparql``.)
"""

from __future__ import annotations

from collections.abc import Mapping

from ..explore.facets import FacetedBrowser
from ..sparql.results import term_to_json
from ..store.base import StoreStatistics, compute_statistics
from .probes import int_param, json_reply


def facets(server, ctx):
    browser = FacetedBrowser(server.store, engine=ctx.engine)
    found = browser.facets(
        max_values=int_param(ctx.request, "max_values", 25),
        min_count=int_param(ctx.request, "min_count", 1),
    )
    return json_reply({"focus": len(browser), "facets": [
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
    ]})


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
