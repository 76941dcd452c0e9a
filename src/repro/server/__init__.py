"""repro.server — SPARQL 1.1 Protocol serving layer.

The survey's requirements only become a *system* when they are reachable
over the wire: this package turns the query/explore stack into a concurrent
HTTP endpoint with the degradation behaviour the survey catalogues —
bounded admission instead of unbounded buffering, and load-shedding to
approximate answers instead of missed latency budgets.

Pieces (all stdlib — ``socket`` + ``threading``, no web framework):

* :mod:`repro.server.http` — minimal HTTP/1.1 request parsing and fixed or
  chunked response writing over raw sockets;
* :mod:`repro.server.admission` — :class:`FairAdmissionQueue`, the bounded
  per-tenant round-robin queue whose overflow is an explicit 503 +
  ``Retry-After`` (backpressure, never buffering);
* :mod:`repro.server.shedding` — :class:`LoadShedder`, the tier controller
  watching a sliding window of interactive latencies against the
  ``interactive`` budget (:mod:`repro.obs.budget`), with hysteresis;
* :mod:`repro.server.sketch` — the shed tier's answer path: aggregates
  answered from a uniform sample of the pattern's first stage through
  mergeable sketches, with error bounds that hold
  (:mod:`repro.server.approximate` keeps the ungrouped entry points);
* :mod:`repro.server.app` — :class:`ReproServer`: the route table, the
  stages a request flows through (read → queue → parse → execute →
  encode → write), the worker pool, content negotiation, chunked
  streaming of SELECT results, and one accounting record per request;
* :mod:`repro.server.reader` — the read stage: one ``selectors`` loop
  over the listening socket and every connection still being read;
* :mod:`repro.server.probes`, :mod:`repro.server.explore` — the probe
  routes and the JSON exploration routes, as plain functions;
* :mod:`repro.server.remote` — :class:`RemoteEndpointSource`, a
  :class:`~repro.store.base.TripleSource` client over the same protocol,
  federating real network endpoints through
  :class:`~repro.store.federated.FederatedStore`.

Run one with ``python -m repro.server`` (see ``--help``).
"""

from .app import ReproServer, ServerConfig
from .remote import EndpointError, RemoteEndpointSource

__all__ = ["EndpointError", "RemoteEndpointSource", "ReproServer", "ServerConfig"]
