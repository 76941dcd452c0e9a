"""Ungrouped COUNT/SUM/AVG in the shed tier: entry points kept by name.

There is one approximate path, :mod:`repro.server.sketch`: an ungrouped
aggregate is a ``GROUP BY`` with a single group, filled by the same
consumer from the same uniform sample of the pattern's first stage and
rendered by the same code. What stays here is what callers import from
this module: the answer type, the shape test for ungrouped aggregates, and
the one-call form.

A query whose first stage fits the row budget was read in full by that one
pass and is answered exactly from it (the graceful-recovery property —
cheap queries stay exact even in shed mode).
"""

from __future__ import annotations

from ..sparql.eval import QueryEngine
from ..sparql.nodes import Query, SelectQuery
from ..sparql.parser import parse_query
from .sketch import ApproximateAnswer, aggregate_shape, sketched_select

__all__ = ["ApproximateAnswer", "approximate_select", "eligible_aggregate"]


def eligible_aggregate(query: Query) -> bool:
    """An ungrouped SELECT whose every projection is a plain
    ``COUNT``/``SUM``/``AVG`` over a variable (or ``COUNT(*)``)."""
    return aggregate_shape(query) == "ungrouped"


def approximate_select(
    engine: QueryEngine,
    query: str | SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> ApproximateAnswer:
    """Answer an ungrouped aggregate from ``max_rows`` first-stage rows.

    Raises :class:`ValueError` for any other query.
    """
    parsed = parse_query(query) if isinstance(query, str) else query
    if not eligible_aggregate(parsed):
        raise ValueError("query is not an eligible aggregate")
    return sketched_select(engine, parsed, max_rows, confidence)
