"""The shed tier's approximate answers: sketches over a uniform sample.

One path answers every aggregate the shed tier takes
(:func:`aggregate_shape`): ungrouped or ``GROUP BY`` COUNT/SUM/AVG, and
ungrouped ``COUNT(DISTINCT ?x)`` — survey §2's "approximate answers
computed incrementally over progressively larger samples", drawn the way
Hillview (PAPERS.md) draws them: positions of columnar runs, merged
sketches, never a prefix. DESIGN.md, *Load shedding*, has the derivation.

**The frame.** The pattern is streamed with exactly its group and argument
variables projected (``Project→VectorizedBGP``: id batches), its BGP asked
(:meth:`~repro.sparql.vectorized.VectorizedBGP.sample_first_stage`) to
start from ``m = max_rows`` of its ``N`` first-stage rows, drawn uniformly
by a generator seeded from the plan digest — one query, one answer. Every
solution descends from one first-stage row, so COUNT and SUM scale by
``N / m`` and AVG is their ratio; ``N`` is read off the source, never
estimated — on every store: one that only yields triples is scanned
through :func:`~repro.store.base.as_id_scan_source`'s encoding adaptor,
and the draw is over the positions of that scan. ``rows_consumed`` /
``estimated_total`` are ``m`` / ``N``. With ``N <= m`` nothing is drawn
and the answer is exact from that one pass; plans with no first stage
(OPTIONAL, UNION) are drained and exact too. Bounds (:func:`_halfwidth`)
allow for one first-stage row leading to several solutions (``fanout``).

**One consumer** (:func:`iter_sketch_passes`) fills every
:class:`SketchBundle` — served answer, ``X-Repro-Sketch`` wire, federation
member, progressive pass: ``np.unique`` groups the id columns, ``bincount``
over the dictionary's value column gives per-group n / mean / M2, a group
key is decoded and JSON-encoded once per distinct group, and the moments
merge into one :class:`~repro.approx.sketch.GroupedMomentsSketch` per
aggregate (ungrouped: one group). ``COUNT(DISTINCT)`` cannot be
extrapolated from a sample: it drains the stream into an HLL, fed once per
distinct id — the route of the wire, federation and progressive modes; a
server whose store is not a federation answers it exactly instead.

A bundle serializes to JSON for the federation wire, merges with other
sources' bundles (frames add: members sampled at different rates are
pooled, an open item; counts over overlapping sources are upper bounds, as
:meth:`FederatedStore.statistics` documents, while HLLs deduplicate) and
renders into an :class:`ApproximateAnswer`. ``GROUP BY`` over a
``DISTINCT`` aggregate is not taken: per-group HLLs under a group budget
would leave the ``other`` bucket of a spilled group undefined.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from ..approx.progressive import StreamingMoments, t_score, z_score
from ..approx.sketch import (
    GroupedMomentsSketch,
    HllSketch,
    default_groups,
    default_precision,
    deserialize_sketch,
    serialize_sketch,
)
from ..obs import OBS
from ..rdf.terms import Literal, Variable
from ..sparql.eval import QueryEngine
from ..sparql.nodes import (
    AggregateExpr,
    Projection,
    Query,
    SelectQuery,
    VariableExpr,
)
from ..sparql.parser import parse_query
from ..sparql.physical import Batch, ExplainNode, _concat, _distinct_keys
from ..sparql.results import (
    SelectResult,
    binding_to_json,
    term_from_json,
    term_to_json,
)
from ..sparql.vectorized import VectorizedBGP
from ..store.base import unique_ids
from ..store.dictionary import VALUE_OTHER

__all__ = [
    "ApproximateAnswer",
    "aggregate_shape",
    "eligible_sketch",
    "SketchBundle",
    "build_sketch_bundle",
    "merge_bundles",
    "bundle_to_answer",
    "sketched_select",
    "federated_sketch_bundle",
    "federated_sketch_select",
    "iter_sketch_passes",
    "note_bundle",
    "progressive_lines",
    "shed_answer",
]

BUNDLE_VERSION = 1
_AGGREGATES = ("COUNT", "SUM", "AVG")
# Projected when a query reads no variable at all (``COUNT(*)`` alone), so
# the pattern is not streamed as ``SELECT *``; not a SPARQL variable name.
_NO_COLUMN = Variable("no column")


@dataclass(frozen=True)
class ApproximateAnswer:
    """An aggregate answer plus the metadata that makes it honest."""

    result: SelectResult
    approximate: bool
    rows_consumed: int  # first-stage rows the answer was computed from
    estimated_total: int  # first-stage rows there are
    confidence: float
    bounds: dict[str, float]  # projection variable -> CI halfwidth
    method: str
    extra: dict[str, object] | None = None  # method-specific annotations

    def metadata(self) -> dict[str, object]:
        """The ``x-repro`` body member / ``X-Repro-*`` header payload."""
        payload: dict[str, object] = {
            "approximate": self.approximate,
            "method": self.method,
            "rows_consumed": self.rows_consumed,
            "estimated_total": self.estimated_total,
            "confidence": self.confidence,
            "bounds": {
                name: (round(value, 6) if value != float("inf") else "inf")
                for name, value in self.bounds.items()
            },
        }
        if self.extra:
            payload.update(self.extra)
        return payload


def aggregate_shape(query: Query) -> str | None:
    """How the shed tier would answer ``query``, or ``None`` if it cannot.

    ``"ungrouped"`` / ``"grouped"``: every projection is a GROUP BY
    variable or a plain ``COUNT``/``SUM``/``AVG`` over a variable (or
    ``COUNT(*)``), the group keys being plain variables. ``"distinct"``:
    ungrouped, every projection ``COUNT(DISTINCT ?var)``. Solution
    modifiers (HAVING, ORDER BY, LIMIT/OFFSET, SELECT DISTINCT), MIN/MAX
    and expression arguments are always answered exactly.
    """
    if not isinstance(query, SelectQuery):
        return None
    if query.having is not None or query.order_by:
        return None
    if query.distinct or query.limit is not None or query.offset:
        return None
    if not all(isinstance(e, VariableExpr) for e in query.group_by):
        return None
    group_vars = {e.variable for e in query.group_by}
    aggregates = distincts = 0
    for projection in query.projections:
        expression = projection.expression
        if expression is None or isinstance(expression, VariableExpr):
            key = projection.variable if expression is None else expression.variable
            if key not in group_vars:
                return None
            continue
        if not isinstance(expression, AggregateExpr):
            return None
        if expression.name not in _AGGREGATES:
            return None
        if expression.distinct and expression.name != "COUNT":
            return None
        if expression.argument is None:
            if expression.name != "COUNT" or expression.distinct:
                return None
        elif not isinstance(expression.argument, VariableExpr):
            return None
        aggregates += 1
        distincts += expression.distinct
    if not aggregates:
        return None
    if distincts:
        ungrouped = distincts == aggregates and not query.group_by
        return "distinct" if ungrouped else None
    return "grouped" if query.group_by else "ungrouped"


def eligible_sketch(query: Query) -> bool:
    """A grouped COUNT/SUM/AVG, or an ungrouped ``COUNT(DISTINCT)``."""
    return aggregate_shape(query) in ("grouped", "distinct")


# --------------------------------------------------------------------------- #
# Group-key wire encoding
# --------------------------------------------------------------------------- #


def _group_key(terms) -> str:
    """Canonical string key of one group: the W3C JSON encodings of its
    key terms, in GROUP BY order, as compact sorted JSON — stable across
    processes so federation members agree on group identity."""
    parts = [None if term is None else term_to_json(term) for term in terms]
    return json.dumps(parts, separators=(",", ":"), sort_keys=True)


def _decode_group_key(
    key: str, group_vars: tuple[Variable, ...]
) -> dict[Variable, object]:
    bindings: dict[Variable, object] = {}
    for var, part in zip(group_vars, json.loads(key)):
        if part is not None:
            bindings[var] = term_from_json(part)
    return bindings


def _term_key(term: object) -> str:
    """Canonical identity of one term for distinct counting (same
    encoding as group keys, so hashes agree across processes)."""
    return json.dumps(
        term_to_json(term), separators=(",", ":"), sort_keys=True
    )


# --------------------------------------------------------------------------- #
# The bundle: per-projection sketches + the sampling frame
# --------------------------------------------------------------------------- #


class _Spec:
    """One projection's role in the bundle."""

    __slots__ = ("alias", "role", "kind", "arg", "distinct", "sketch")

    def __init__(self, alias, role, kind=None, arg=None, distinct=False,
                 sketch=None) -> None:
        self.alias = alias  # Variable: the output column
        self.role = role  # "group" | "agg"
        self.kind = kind  # COUNT | SUM | AVG for aggregates
        self.arg = arg  # Variable | None (COUNT(*))
        self.distinct = distinct
        self.sketch = sketch  # HllSketch | GroupedMomentsSketch | None

    def to_dict(self) -> dict:
        payload = {
            "alias": str(self.alias),
            "role": self.role,
        }
        if self.role == "agg":
            payload["kind"] = self.kind
            payload["arg"] = str(self.arg) if self.arg is not None else None
            payload["distinct"] = self.distinct
            payload["sketch"] = serialize_sketch(self.sketch)
        else:
            payload["arg"] = str(self.arg)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "_Spec":
        role = payload["role"]
        arg = payload.get("arg")
        return cls(
            alias=Variable(payload["alias"]),
            role=role,
            kind=payload.get("kind"),
            arg=Variable(arg) if arg is not None else None,
            distinct=bool(payload.get("distinct", False)),
            sketch=(
                deserialize_sketch(payload["sketch"])
                if role == "agg" else None
            ),
        )


class SketchBundle:
    """The mergeable unit one source contributes to a sketched answer.

    ``rows_consumed`` of ``estimated_total`` first-stage rows were read
    (all of them when ``exhausted``); ``fanout`` is the most solutions one
    of them led to. ``plan`` is the EXPLAIN tree of the stream this
    process filled the bundle from and does not travel on the wire.
    """

    def __init__(
        self,
        group_vars: tuple[Variable, ...],
        specs: list[_Spec],
        rows_consumed: int,
        estimated_total: int,
        exhausted: bool,
        confidence: float,
        fanout: int = 1,
    ) -> None:
        self.group_vars = group_vars
        self.specs = specs
        self.rows_consumed = rows_consumed
        self.estimated_total = estimated_total
        self.exhausted = exhausted
        self.confidence = confidence
        self.fanout = fanout
        self.plan: ExplainNode | None = None

    @property
    def agg_specs(self) -> list[_Spec]:
        return [spec for spec in self.specs if spec.role == "agg"]

    def merge(self, other: "SketchBundle") -> None:
        """Absorb another source's bundle (the coordinator's combine step).

        Sources are bag-unioned: rows and totals add, sketches merge.
        Overlapping sources therefore over-count grouped aggregates — the
        documented upper-bound semantics federation statistics already
        have — while HLL distinct merges stay duplicate-proof.
        """
        if [str(v) for v in other.group_vars] != [
            str(v) for v in self.group_vars
        ]:
            raise ValueError("bundles group by different keys")
        mine, theirs = self.agg_specs, other.agg_specs
        if len(mine) != len(theirs) or any(
            (a.kind, str(a.alias), a.distinct) != (b.kind, str(b.alias),
                                                   b.distinct)
            for a, b in zip(mine, theirs)
        ):
            raise ValueError("bundles carry different aggregate shapes")
        for a, b in zip(mine, theirs):
            a.sketch.merge(b.sketch)
        self.rows_consumed += other.rows_consumed
        self.estimated_total += other.estimated_total
        self.exhausted = self.exhausted and other.exhausted
        self.fanout = max(self.fanout, other.fanout)

    def to_dict(self) -> dict:
        payload = {
            "v": BUNDLE_VERSION,
            "group_vars": [str(var) for var in self.group_vars],
            "rows_consumed": self.rows_consumed,
            "estimated_total": self.estimated_total,
            "exhausted": self.exhausted,
            "confidence": self.confidence,
            "specs": [spec.to_dict() for spec in self.specs],
        }
        if self.fanout > 1:  # absent = 1: what every reader assumes
            payload["fanout"] = self.fanout
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SketchBundle":
        version = payload.get("v")
        if version != BUNDLE_VERSION:
            raise ValueError(f"unsupported bundle version: {version!r}")
        return cls(
            group_vars=tuple(
                Variable(name) for name in payload.get("group_vars", [])
            ),
            specs=[_Spec.from_dict(s) for s in payload.get("specs", [])],
            rows_consumed=int(payload["rows_consumed"]),
            estimated_total=int(payload["estimated_total"]),
            exhausted=bool(payload["exhausted"]),
            confidence=float(payload.get("confidence", 0.95)),
            fanout=int(payload.get("fanout", 1)),
        )


# --------------------------------------------------------------------------- #
# Filling a bundle from one engine's stream
# --------------------------------------------------------------------------- #


def _make_specs(
    parsed: SelectQuery, confidence: float
) -> tuple[tuple[Variable, ...], list[_Spec]]:
    group_vars = tuple(expr.variable for expr in parsed.group_by)
    specs: list[_Spec] = []
    for projection in parsed.projections:
        expression = projection.expression
        if expression is None or isinstance(expression, VariableExpr):
            underlying = (
                projection.variable if expression is None
                else expression.variable
            )
            specs.append(_Spec(projection.variable, "group", arg=underlying))
            continue
        arg = (
            expression.argument.variable
            if isinstance(expression.argument, VariableExpr) else None
        )
        if expression.distinct:
            sketch = HllSketch(
                precision=default_precision(), confidence=confidence
            )
        else:
            sketch = GroupedMomentsSketch(
                max_groups=default_groups(), confidence=confidence
            )
        specs.append(_Spec(
            projection.variable, "agg", kind=expression.name, arg=arg,
            distinct=expression.distinct, sketch=sketch,
        ))
    return group_vars, specs


def _fold(bundle: SketchBundle, batches: list[Batch], table) -> None:
    """Merge the solutions in ``batches`` (id columns of the plan's term
    ``table``: -1 is an unbound cell, an id <= -2 a computed term) into
    the bundle's sketches. Terms are decoded once per distinct group and,
    under DISTINCT, once per distinct id."""
    columns, count = (
        batches[0] if len(batches) == 1
        else _concat(batches, batches[0].columns)
    )

    def column(variable: Variable) -> np.ndarray:
        ids = columns.get(variable)
        return np.full(count, -1) if ids is None else ids

    group_vars = bundle.group_vars
    if group_vars:
        keys, inverse = _distinct_keys([column(v) for v in group_vars])
        parts = [table.decode_batch(keys[:, at]) for at in range(len(group_vars))]
        names = [_group_key(terms) for terms in zip(*parts)]
    else:
        inverse = np.zeros(count, dtype=np.int64)
        names = [_group_key(())]
    groups = len(names)
    for spec in bundle.agg_specs:
        member = inverse  # the group of each row the aggregate takes
        if spec.arg is not None:
            ids = column(spec.arg)
            bound = ids != -1
            if not bound.all():
                ids, member = ids[bound], member[bound]
        if spec.distinct:
            for term in table.decode_batch(unique_ids(ids)):
                spec.sketch.add(_term_key(term))
        elif spec.kind == "COUNT":
            counts = np.bincount(member, minlength=groups)
            spec.sketch.add_groups(names, counts.tolist(), repeat(1.0), repeat(0.0))
        else:  # SUM / AVG: numeric literals only, like the exact engine
            values, kinds = table.numeric(ids)
            numeric = kinds != VALUE_OTHER
            if not numeric.all():
                values, member = values[numeric], member[numeric]
            counts = np.bincount(member, minlength=groups)
            means = np.bincount(member, weights=values, minlength=groups)
            means /= np.maximum(counts, 1)
            m2s = np.bincount(
                member, weights=(values - means[member]) ** 2, minlength=groups
            )
            spec.sketch.add_groups(
                names, counts.tolist(), means.tolist(), m2s.tolist()
            )


def iter_sketch_passes(
    engine: QueryEngine,
    query: str | SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
    passes: int = 4,
    digest: str | None = None,
) -> Iterator[SketchBundle]:
    """Fill a bundle from ``engine``, yielding it as it tightens.

    The one consumer behind every approximate answer (module docstring).
    ``max_rows`` is the number of first-stage rows drawn; they arrive in
    random order in ``passes`` equal chunks, each prefix a uniform sample,
    and a bundle is yielded after each chunk: its own frame, the sketches
    shared with the passes before it. :func:`build_sketch_bundle` is the
    one-pass case. A stream that cannot be bounded (a DISTINCT
    projection, a plan with no first stage) is drained and yielded once,
    exhausted.

    The plan digest of ``query`` (``digest``, when the caller has it)
    seeds the draw and names the stream's query-log record (not the digest
    of the pattern query streamed for it). Every pass also lands on the progress-event stream
    (``approx.sketch.pass``).
    """
    parsed = parse_query(query) if isinstance(query, str) else query
    if aggregate_shape(parsed) is None:
        raise ValueError("not an aggregate the shed tier answers")
    if max_rows < 1 or passes < 1:
        raise ValueError("max_rows and passes must be positive")
    group_vars, specs = _make_specs(parsed, confidence)
    bundle = SketchBundle(group_vars, specs, 0, 0, False, confidence)
    needed = list(dict.fromkeys(
        [*group_vars, *(s.arg for s in bundle.agg_specs if s.arg is not None)]
    ))
    digest = digest or engine.plan_digest(parsed)
    stream = engine.stream_select(
        SelectQuery(
            projections=tuple(map(Projection, needed or [_NO_COLUMN])),
            where=parsed.where,
            prefixes=parsed.prefixes,
        ),
        digest=digest,
    )
    table, batches = stream.dictionary, stream.batches
    stage = stream.root.children[0]
    if isinstance(stage, VectorizedBGP):
        stage.drained = True  # every batch is folded
    if (
        isinstance(stage, VectorizedBGP) and stage.input is None
        and not any(s.distinct for s in specs)
    ):
        stage.sample_first_stage(max_rows, int(digest[:16], 16), passes)
    else:  # OPTIONAL, UNION, ...: no first stage to draw from
        stage = None
    stepwise = passes > 1 and stage is not None
    pending: list[Batch] = []
    seen = 0
    emitter = OBS.progress

    def frame(ended: bool) -> tuple[int, int, bool]:
        if pending:
            _fold(bundle, pending, table)
            pending.clear()
        if stage is not None:
            consumed, total = stage.sampled or (0, 0)
            bundle.fanout = stage.fanout
            exhausted = ended and consumed == total
        else:
            consumed, total, exhausted = seen, seen, ended
        bundle.rows_consumed, bundle.estimated_total = consumed, total
        bundle.exhausted = exhausted
        return consumed, total, exhausted

    def passed() -> SketchBundle:
        bundle.plan = stream.root.explain()
        if emitter.has_subscribers:
            emitter.emit(
                "approx.sketch.pass",
                completed=bundle.rows_consumed,
                total=bundle.estimated_total,
                exhausted=bundle.exhausted,
            )
        return copy.copy(bundle)  # its own frame, the sketches shared

    last = None
    try:
        for batch in batches:
            pending.append(batch)
            seen += batch.count
            if stepwise:
                last = frame(ended=False)
                yield passed()
        if frame(ended=True) != last:
            yield passed()
    finally:
        batches.close()  # an abandoned evaluation is logged now, not at GC


def build_sketch_bundle(
    engine: QueryEngine,
    query: str | SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
    digest: str | None = None,
) -> SketchBundle:
    """One engine's bundle for ``query`` from ``max_rows`` first-stage
    rows: :func:`iter_sketch_passes` in a single pass."""
    (bundle,) = iter_sketch_passes(engine, query, max_rows, confidence,
                                   passes=1, digest=digest)
    return bundle


def merge_bundles(bundles: list[SketchBundle]) -> SketchBundle:
    if not bundles:
        raise ValueError("nothing to merge")
    merged = bundles[0]
    for bundle in bundles[1:]:
        merged.merge(bundle)
    return merged


# --------------------------------------------------------------------------- #
# Rendering a bundle into the serving layer's answer shape
# --------------------------------------------------------------------------- #


def _halfwidth(
    kind: str, moments: StreamingMoments, bundle: SketchBundle
) -> float:
    """Confidence halfwidth of one group's estimate under the bundle's
    frame: ``m`` of ``N`` first-stage rows drawn without replacement, each
    leading to at most ``k`` solutions.

    COUNT and SUM are ``N`` times the mean contribution ``y`` of a
    first-stage row to the group. With ``k`` solutions moving as one,
    ``E[y²] <= k² (q σ² + q μ²)`` where ``q = n / (k m)`` is the share of
    rows contributing and ``μ, σ²`` the group's value moments (``1, 0``
    for COUNT); ``q`` enters Agresti–Coull-adjusted, so a group seen a
    handful of times does not claim a variance near zero. AVG is the ratio
    estimator: the standard error of the group mean, times ``k``. All
    carry the finite-population correction ``1 - m / N``.
    """
    m, total, k = bundle.rows_consumed, bundle.estimated_total, bundle.fanout
    if m >= total:
        return 0.0  # every first-stage row was read
    correction = 1.0 - m / total
    n = moments.n
    mean, quantile = 1.0, z_score(bundle.confidence)
    if kind != "COUNT":
        # μ and σ² are estimates from n values: Student's quantile, and
        # no interval at all from fewer than two.
        if n < 2:
            return float("inf")
        mean, quantile = moments.mean, t_score(bundle.confidence, n - 1)
    if kind == "AVG":
        return quantile * math.sqrt(correction * k * moments.variance / n)
    z = z_score(bundle.confidence)
    trials = m + z * z
    q = (n / k + z * z / 2.0) / trials
    spread = q * moments.variance + q * (1.0 - q) * mean * mean
    return k * total * quantile * math.sqrt(correction * spread / trials)


_EMPTY = StreamingMoments()  # a group an aggregate's sketch does not track


def _grouped_rows(
    bundle: SketchBundle,
) -> tuple[list[dict], dict[str, float], bool]:
    """Per-group result rows + per-alias worst-case halfwidths.

    Rows are ordered by descending estimated size of the group (the
    shape a top-groups visualization wants); a group tracked by one
    aggregate's sketch but spilled from another simply leaves that
    column unbound, mirroring SPARQL's unbound semantics. Without GROUP
    BY there is one row whatever was seen, the exact engine's implicit
    group: ``COUNT`` and ``SUM`` of nothing are 0, ``AVG`` is unbound.
    """
    rows_seen = bundle.rows_consumed
    scale = bundle.estimated_total / rows_seen if rows_seen else 0.0
    agg_specs = bundle.agg_specs
    keys: dict[str, int] = {} if bundle.group_vars else {_group_key(()): 0}
    for spec in agg_specs:
        for key, n, _total, _mean, _var in spec.sketch.group_stats():
            if key.startswith("__"):
                continue  # the OTHER_BUCKET pseudo-group
            keys[key] = max(keys.get(key, 0), n)
    ordered = sorted(keys, key=lambda key: (-keys[key], key))
    spilled = any(spec.sketch.spilled for spec in agg_specs)
    bounds: dict[str, float] = {str(s.alias): 0.0 for s in bundle.specs}
    rows: list[dict] = []
    for key in ordered:
        row: dict = dict(_decode_group_key(key, bundle.group_vars))
        for spec in agg_specs:
            moments = spec.sketch.group(key) or _EMPTY
            if spec.kind == "COUNT":
                row[spec.alias] = Literal(int(round(moments.n * scale)))
            elif moments.n:
                row[spec.alias] = Literal(float(
                    moments.mean if spec.kind == "AVG"
                    else moments.total * scale
                ))
            elif bundle.group_vars:
                continue  # nothing of this group under this aggregate
            elif spec.kind == "SUM":  # the implicit group over nothing
                row[spec.alias] = Literal(0)
            alias = str(spec.alias)
            bounds[alias] = max(
                bounds[alias], _halfwidth(spec.kind, moments, bundle)
            )
        rows.append(row)
    return rows, bounds, spilled


def bundle_to_answer(
    bundle: SketchBundle, method: str = "sketch"
) -> ApproximateAnswer:
    """Render a (possibly merged) bundle as an :class:`ApproximateAnswer`;
    ``method`` names how the bundle came to be (``sketch-federated``)."""
    variables = [spec.alias for spec in bundle.specs]
    frame = dict(
        rows_consumed=bundle.rows_consumed,
        estimated_total=bundle.estimated_total,
        confidence=bundle.confidence,
    )
    if any(spec.distinct for spec in bundle.agg_specs):
        row: dict = {}
        bounds = {}
        for spec in bundle.agg_specs:
            estimate = spec.sketch.estimate()
            row[spec.alias] = Literal(int(round(estimate.value)))
            bounds[str(spec.alias)] = round(estimate.absolute_bound(), 6)
        return ApproximateAnswer(
            result=SelectResult(variables, [row], plan=bundle.plan),
            approximate=True,
            bounds=bounds,
            method=method,
            extra={"sketch": "hll"},
            **frame,
        )
    rows, bounds, spilled = _grouped_rows(bundle)
    approximate = (not bundle.exhausted) or spilled
    extra: dict[str, object] | None = None
    if bundle.group_vars:
        extra = {"groups": len(rows)}
        if spilled:
            other = max(
                spec.sketch.other_group_estimate()
                for spec in bundle.agg_specs
            )
            extra["other_groups"] = int(round(other))
    return ApproximateAnswer(
        result=SelectResult(variables, rows, plan=bundle.plan),
        approximate=approximate,
        bounds=bounds,
        method=method if approximate else "exact",
        extra=extra,
        **frame,
    )


# --------------------------------------------------------------------------- #
# Entry points: local and federated
# --------------------------------------------------------------------------- #


def sketched_select(
    engine: QueryEngine,
    query: str | SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> ApproximateAnswer:
    """One engine's answer from ``max_rows`` first-stage rows."""
    return bundle_to_answer(
        build_sketch_bundle(engine, query, max_rows, confidence)
    )


def federated_sketch_bundle(
    store: object,
    query_text: str,
    parsed: SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> SketchBundle | None:
    """Fan an aggregate out across federation members.

    Members exposing ``sketch_select`` (remote endpoints) answer with a
    serialized bundle over the wire; plain local sources are sketched
    in-process. Returns ``None`` when ``store`` is not a federation —
    the caller falls back to :func:`build_sketch_bundle`.
    """
    members = getattr(store, "members", None)
    if members is None:
        return None
    bundles: list[SketchBundle] = []
    for _name, source in members():
        sketch_call = getattr(source, "sketch_select", None)
        if sketch_call is not None:
            payload = sketch_call(
                query_text, max_rows=max_rows, confidence=confidence
            )
            bundles.append(SketchBundle.from_dict(payload))
        else:
            bundles.append(build_sketch_bundle(
                QueryEngine(source), parsed, max_rows, confidence
            ))
    return merge_bundles(bundles)


def federated_sketch_select(
    store: object,
    query_text: str,
    parsed: SelectQuery,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> ApproximateAnswer | None:
    merged = federated_sketch_bundle(
        store, query_text, parsed, max_rows, confidence
    )
    if merged is None:
        return None
    return bundle_to_answer(merged, method="sketch-federated")


# --------------------------------------------------------------------------- #
# What a server answers with
# --------------------------------------------------------------------------- #


def note_bundle(bundle: SketchBundle, service: str) -> None:
    """Per-family sketch activity: counters + memory gauges for /metrics
    (served from the coordinator level, never per-row)."""
    for spec in bundle.agg_specs:
        labels = {"service": service, "family": spec.sketch.kind}
        OBS.metrics.counter("server.sketch.answers", **labels).inc()
        OBS.metrics.gauge("server.sketch.bytes", **labels).set(
            float(spec.sketch.size_bytes())
        )


def shed_answer(store: object, engine: QueryEngine, text: str,
                parsed: SelectQuery, digest: str, max_rows: int,
                service: str) -> ApproximateAnswer:
    """The shed tier's bounded-work answer: a bundle filled from a sample
    of this store, or merged from the members' bundles when the store is a
    federation. Its query-log run is under the digest of the query the
    client sent (``digest``): the sampled stream's own (strategy
    ``…+sample``), or for a federation the one emitted here, after the
    members' streams."""
    started = time.perf_counter_ns()
    bundle = federated_sketch_bundle(store, text, parsed, max_rows=max_rows)
    if bundle is None:
        bundle = build_sketch_bundle(engine, parsed, max_rows=max_rows,
                                     digest=digest)
        answer = bundle_to_answer(bundle)
    else:
        answer = bundle_to_answer(bundle, method="sketch-federated")
        OBS.querylog.emit(
            digest=digest, form="SELECT",
            strategy="federated+sample" if answer.approximate else "federated",
            latency_ms=(time.perf_counter_ns() - started) / 1e6,
            solutions=len(answer.result),
        )
    note_bundle(bundle, service)
    return answer


def progressive_lines(engine: QueryEngine, parsed: SelectQuery,
                      max_rows: int, service: str) -> Iterator[str]:
    """Tightening estimates as NDJSON, one line per pass over a growing
    sample (the ``X-Repro-Progressive`` mode)."""
    passes = iter_sketch_passes(engine, parsed, max_rows=max_rows)
    for index, bundle in enumerate(passes, start=1):
        answer = bundle_to_answer(bundle)
        result = answer.result
        yield json.dumps({
            "pass": index,
            "final": bundle.exhausted,
            "metadata": answer.metadata(),
            "bindings": [binding_to_json(result.variables, row)
                         for row in result.rows],
        }, sort_keys=True) + "\n"
    note_bundle(bundle, service)  # the last pass: there is always one
