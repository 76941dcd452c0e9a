"""Streaming physical operators: the execution stage of the query pipeline.

Every operator is pull-based — ``execute(binding)`` yields solution rows one
at a time, so LIMIT-ed exploratory queries (the dominant shape in the
survey's interactive setting) touch only as much of the store as they need.
Each operator carries its planner *estimate* and counts the rows it
*actually* produced; :meth:`PhysicalOperator.explain` exposes both as an
:class:`ExplainNode` tree, the EXPLAIN/EXPLAIN ANALYZE surface.

Every leaf that touches the store is a
:class:`~repro.sparql.vectorized.VectorizedBGP`: one connected component
of a basic graph pattern, joined and filtered on id batches inside that
operator, whatever the store (:func:`~repro.store.base.as_id_scan_source`).
Operators that can say so (:meth:`PhysicalOperator.batch_dictionary`) have
a second way out, ``execute_batches(binding)``: the same solutions as
:class:`Batch` objects of dictionary ids, never decoded here. The BGP
produces them, :class:`ProjectOp` (plain variables) and :class:`SliceOp`
pass them on as a column pick and an array slice, and the engine hands them
to the serializer as they are; every other operator consumes and produces
rows.

Joins between subplans:

* :class:`NestedLoopJoin` — correlated: the right side re-executes once per
  left row with that row as the ambient binding, so every shared variable
  becomes a bound index lookup.
* :class:`HashJoin` — for variable-disjoint subplans (cartesian components
  of a BGP): the right side is materialized once per distinct ambient
  context instead of once per left row.

:func:`build_plan` lowers a logical plan (:mod:`repro.sparql.plan`) into an
operator tree, ordering BGP patterns with a
:class:`~repro.sparql.optimizer.CardinalityEstimator` and applying
pushed-down filters at the earliest point their variables are covered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ..obs import Span
from ..rdf.terms import Term, Variable, term_sort_key
from ..store.base import TripleSource, as_id_scan_source
from .expr import (
    Binding,
    ExprError,
    ReversedKey,
    ebv,
    eval_group_expr,
    evaluate,
    expression_variables,
    group_key,
    to_term,
    try_evaluate,
)
from .nodes import (
    Expression,
    OrderCondition,
    Projection,
    TriplePatternNode,
    ValuesPattern,
    VariableExpr,
)
from .optimizer import CardinalityEstimator
from .plan import (
    LogicalAggregate,
    LogicalBGP,
    LogicalDistinct,
    LogicalExtend,
    LogicalFilter,
    LogicalJoin,
    LogicalLeftJoin,
    LogicalNode,
    LogicalProject,
    LogicalPrune,
    LogicalSlice,
    LogicalSort,
    LogicalUnion,
    LogicalValues,
    _canonical_expression,
    certain_variables,
    possible_variables,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..store.dictionary import TermDictionary

__all__ = [
    "Batch",
    "EvalStats",
    "ExplainNode",
    "PhysicalOperator",
    "build_plan",
    "execution_strategy",
    "operator_span",
    "scan_observations",
]


@dataclass
class EvalStats:
    """Execution counters, accumulated per query and mergeable across queries.

    The engine keeps one long-lived instance (totals since construction or
    the last :meth:`reset`) and additionally attaches a fresh per-query
    instance to each :class:`~repro.sparql.results.SelectResult`.

    Contract of :meth:`reset`: all counters return to zero and the
    ``operator_rows`` mapping is emptied *in place* — existing references
    to the stats object (and to ``operator_rows``) stay valid.

    ``tracer`` doubles as the timing switch: when it is not ``None``,
    operators accumulate per-operator wall-clock time (suspension-aware)
    into ``wall_ns``, which EXPLAIN surfaces as ``time=``. The fast path
    when unset is a single attribute check in :meth:`PhysicalOperator.execute`.
    """

    store_lookups: int = 0
    intermediate_bindings: int = 0
    solutions: int = 0
    # Id batches the BGP stages produced (scans and probes) and the id
    # rows they carried; zero only for a plan that never touched the store.
    scan_batches: int = 0
    scan_rows: int = 0
    operator_rows: dict[str, int] = field(default_factory=dict)
    tracer: object | None = field(default=None, repr=False, compare=False)

    def reset(self) -> None:
        self.store_lookups = 0
        self.intermediate_bindings = 0
        self.solutions = 0
        self.scan_batches = 0
        self.scan_rows = 0
        self.operator_rows.clear()

    def record_rows(self, operator: str, count: int = 1) -> None:
        self.operator_rows[operator] = self.operator_rows.get(operator, 0) + count

    def merge(self, other: "EvalStats") -> None:
        """Fold another stats object (e.g. a per-query one) into this one."""
        self.store_lookups += other.store_lookups
        self.intermediate_bindings += other.intermediate_bindings
        self.solutions += other.solutions
        self.scan_batches += other.scan_batches
        self.scan_rows += other.scan_rows
        for operator, count in other.operator_rows.items():
            self.record_rows(operator, count)


@dataclass(frozen=True)
class ExplainNode:
    """One node of an EXPLAIN (ANALYZE) tree.

    ``wall_ms`` is the operator's inclusive wall-clock time (children
    included), sourced from the span timers; ``None`` when the run was not
    timed. ``cached`` marks a plan served from a digest-keyed cache: its
    actual cardinalities describe the *prior* run, not fresh execution.
    """

    operator: str
    detail: str
    estimated_rows: float | None
    actual_rows: int | None
    children: tuple["ExplainNode", ...] = ()
    wall_ms: float | None = None
    cached: bool = False

    def render(self, indent: int = 0) -> str:
        estimated = (
            "?" if self.estimated_rows is None else f"{self.estimated_rows:.1f}"
        )
        actual = "-" if self.actual_rows is None else str(self.actual_rows)
        detail = f" {self.detail}" if self.detail else ""
        timing = "" if self.wall_ms is None else f" time={self.wall_ms:.3f}ms"
        cached = "  [cached plan: actuals from prior run]" if self.cached else ""
        line = (
            f"{'  ' * indent}{self.operator}{detail}  "
            f"(est={estimated} actual={actual}{timing}){cached}"
        )
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def walk(self) -> Iterator["ExplainNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, operator: str) -> list["ExplainNode"]:
        return [node for node in self.walk() if node.operator == operator]


class Batch(NamedTuple):
    """One unit of columnar state: aligned ``(count,)`` int64 id columns,
    one per variable bound in these solutions. (``stream_select`` lays a
    row plan's answer out the same way, with lists of terms for columns.)"""

    columns: "dict[Variable, np.ndarray]"
    count: int


class PhysicalOperator:
    """Base class: wraps ``_run`` (rows) and ``_batches`` (id batches) with
    actual-row accounting.

    When the owning :class:`EvalStats` carries a tracer, execution also
    accumulates inclusive wall-clock time into ``wall_ns``. Timing is
    suspension-aware: a pull-based operator is only charged for the
    segments between being resumed and yielding the next row or batch,
    never for the time its consumer holds the generator suspended.
    """

    name = "Operator"

    def __init__(
        self,
        stats: EvalStats,
        estimate: float | None,
        children: tuple["PhysicalOperator", ...] = (),
    ) -> None:
        self.stats = stats
        self.estimated_rows = estimate
        self.actual_rows = 0
        self.executions = 0
        self.children = children
        self.wall_ns = 0
        self.timed = False

    def execute(self, binding: Binding) -> Iterator[Binding]:
        self.executions += 1
        if self.stats.tracer is None:  # the disabled-telemetry fast path
            for row in self._run(binding):
                self.actual_rows += 1
                self.stats.record_rows(self.name)
                yield row
            return
        self.timed = True
        clock = time.perf_counter_ns
        started = clock()
        for row in self._run(binding):
            self.wall_ns += clock() - started
            self.actual_rows += 1
            self.stats.record_rows(self.name)
            yield row
            started = clock()
        self.wall_ns += clock() - started

    def _run(self, binding: Binding) -> Iterator[Binding]:  # pragma: no cover
        raise NotImplementedError

    def batch_dictionary(self) -> "TermDictionary | None":
        """The dictionary of the ids :meth:`execute_batches` yields;
        ``None`` (the default) when this operator only produces rows."""
        return None

    def execute_batches(self, binding: Binding) -> Iterator[Batch]:
        """The batch protocol: ``execute``'s solutions, still as id columns.

        Accounts like ``execute`` does (executions, actual rows, inclusive
        suspension-aware time), per batch instead of per row. Only for
        operators whose :meth:`batch_dictionary` answers.
        """
        self.executions += 1
        timed = self.stats.tracer is not None
        if timed:
            self.timed = True
        clock = time.perf_counter_ns
        started = clock()
        for batch in self._batches(binding):
            if timed:
                self.wall_ns += clock() - started
            self.actual_rows += batch.count
            self.stats.record_rows(self.name, batch.count)
            yield batch
            started = clock()
        if timed:
            self.wall_ns += clock() - started

    def _batches(self, binding: Binding) -> Iterator[Batch]:  # pragma: no cover
        raise NotImplementedError

    def detail(self) -> str:
        return ""

    def explain(self) -> ExplainNode:
        return ExplainNode(
            self.name,
            self.detail(),
            self.estimated_rows,
            self.actual_rows if self.executions else None,
            tuple(child.explain() for child in self.children),
            wall_ms=self.wall_ns / 1e6 if self.timed else None,
        )


class Singleton(PhysicalOperator):
    """The empty BGP: one solution, the ambient binding itself."""

    name = "Singleton"

    def _run(self, binding: Binding) -> Iterator[Binding]:
        yield dict(binding)


class NestedLoopJoin(PhysicalOperator):
    """Correlated join: right side re-executes under each left row."""

    name = "NestedLoopJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (left, right))
        self.left = left
        self.right = right

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for left_row in self.left.execute(binding):
            yield from self.right.execute(left_row)


class HashJoin(PhysicalOperator):
    """Join of variable-disjoint subplans: materialize right once, reuse.

    The right side only depends on the ambient binding through
    ``right_variables`` (the variables its patterns mention), so its rows
    are cached per distinct restriction of the binding to those variables.
    The right side executes with exactly that restriction, never the full
    ambient row, so cached rows can be merged under any compatible context.
    """

    name = "HashJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        right_variables: frozenset[Variable],
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (left, right))
        self.left = left
        self.right = right
        self.right_variables = right_variables
        self._materialized: dict[tuple, list[Binding]] = {}

    def _right_rows(self, binding: Binding) -> list[Binding]:
        restricted = {v: binding[v] for v in self.right_variables if v in binding}
        key = tuple(sorted((str(v), group_key(t)) for v, t in restricted.items()))
        rows = self._materialized.get(key)
        if rows is None:
            rows = list(self.right.execute(restricted))
            self._materialized[key] = rows
        return rows

    def _run(self, binding: Binding) -> Iterator[Binding]:
        right_rows = self._right_rows(binding)
        if not right_rows:
            return
        for left_row in self.left.execute(binding):
            for right_row in right_rows:
                merged = dict(left_row)
                compatible = True
                for variable, term in right_row.items():
                    bound = merged.get(variable)
                    if bound is None:
                        merged[variable] = term
                    elif bound != term:
                        compatible = False
                        break
                if compatible:
                    yield merged

    def detail(self) -> str:
        return "disjoint" if not self.right_variables else ""


class LeftJoinOp(PhysicalOperator):
    """OPTIONAL: left rows extended by the right side when it matches."""

    name = "LeftJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (left, right))
        self.left = left
        self.right = right

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for left_row in self.left.execute(binding):
            matched = False
            for joined in self.right.execute(left_row):
                matched = True
                yield joined
            if not matched:
                yield left_row


class UnionOp(PhysicalOperator):
    name = "Union"

    def __init__(
        self,
        branches: tuple[PhysicalOperator, ...],
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, branches)

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for branch in self.children:
            yield from branch.execute(binding)


class ValuesOp(PhysicalOperator):
    name = "Values"

    def __init__(
        self, pattern: ValuesPattern, stats: EvalStats, estimate: float | None
    ) -> None:
        super().__init__(stats, estimate)
        self.pattern = pattern

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for row in self.pattern.rows:
            extended = dict(binding)
            compatible = True
            for variable, term in zip(self.pattern.variables, row):
                if term is None:  # UNDEF constrains nothing
                    continue
                bound = extended.get(variable)
                if bound is None:
                    extended[variable] = term
                elif bound != term:
                    compatible = False
                    break
            if compatible:
                yield extended

    def detail(self) -> str:
        return f"{len(self.pattern.rows)} rows"


def filter_passes(expression: Expression, row: Binding) -> bool:
    """FILTER row semantics: effectively true, and an error excludes."""
    try:
        return ebv(evaluate(expression, row))
    except ExprError:
        # repro: swallow(a FILTER error excludes the row, per the
        # SPARQL spec)
        return False


class FilterOp(PhysicalOperator):
    """Drops rows whose expression errors or is not effectively true.

    The row path for filters above anything but a single BGP component
    (OPTIONAL, UNION, cross-component joins); inside a
    :class:`~repro.sparql.vectorized.VectorizedBGP` filters are masks over
    id batches instead.
    """

    name = "Filter"

    def __init__(
        self,
        child: PhysicalOperator,
        expression: Expression,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.expression = expression

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for row in self.child.execute(binding):
            if filter_passes(self.expression, row):
                yield row

    def detail(self) -> str:
        return _canonical_expression(self.expression)


class ExtendOp(PhysicalOperator):
    """BIND: evaluation errors leave the row unchanged, rebinding drops it."""

    name = "Extend"

    def __init__(
        self,
        child: PhysicalOperator,
        variable: Variable,
        expression: Expression,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.variable = variable
        self.expression = expression

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for row in self.child.execute(binding):
            try:
                value = to_term(evaluate(self.expression, row))
            except ExprError:
                yield row
                continue
            if self.variable in row:
                continue  # BIND on a bound variable: no solution
            extended = dict(row)
            extended[self.variable] = value
            yield extended

    def detail(self) -> str:
        return f"?{self.variable} := {_canonical_expression(self.expression)}"


class ProjectOp(PhysicalOperator):
    name = "Project"

    def __init__(
        self,
        child: PhysicalOperator,
        projections: tuple[Projection, ...],
        select_all: bool,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.projections = projections
        self.select_all = select_all

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for row in self.child.execute(binding):
            if self.select_all:
                yield dict(row)
                continue
            projected: Binding = {}
            for projection in self.projections:
                if projection.expression is None:
                    value: Term | None = row.get(projection.variable)
                else:
                    try:
                        value = to_term(evaluate(projection.expression, row))
                    except ExprError:
                        # repro: swallow(an erroring SELECT expression
                        # leaves the variable unbound, per the spec)
                        value = None
                if value is not None:
                    projected[projection.variable] = value
            yield projected

    def batch_dictionary(self) -> "TermDictionary | None":
        if self.select_all or any(p.expression is not None for p in self.projections):
            return None
        return self.child.batch_dictionary()

    def _batches(self, binding: Binding) -> Iterator[Batch]:
        """Plain-variable projection of id batches: a column pick."""
        wanted = [projection.variable for projection in self.projections]
        for columns, count in self.child.execute_batches(binding):
            yield Batch({v: columns[v] for v in wanted if v in columns}, count)

    def detail(self) -> str:
        if self.select_all:
            return "*"
        return ", ".join(f"?{p.variable}" for p in self.projections)


class PruneOp(PhysicalOperator):
    """Projection pruning: trim rows to the observable variables."""

    name = "Prune"

    def __init__(
        self,
        child: PhysicalOperator,
        variables: frozenset[Variable],
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.variables = variables

    def _run(self, binding: Binding) -> Iterator[Binding]:
        for row in self.child.execute(binding):
            yield {v: t for v, t in row.items() if v in self.variables}

    def detail(self) -> str:
        return ", ".join(sorted(f"?{v}" for v in self.variables))


class SortOp(PhysicalOperator):
    """Blocking: materializes its input, sorts by the ORDER BY keys."""

    name = "Sort"

    def __init__(
        self,
        child: PhysicalOperator,
        conditions: tuple[OrderCondition, ...],
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.conditions = conditions

    def _run(self, binding: Binding) -> Iterator[Binding]:
        def key(row: Binding):
            parts = []
            for condition in self.conditions:
                try:
                    sort_key = term_sort_key(
                        to_term(evaluate(condition.expression, row))
                    )
                except ExprError:
                    sort_key = (0,)  # unbound is lowest: first, or last under DESC
                parts.append(ReversedKey(sort_key) if condition.descending else sort_key)
            return tuple(parts)

        yield from sorted(self.child.execute(binding), key=key)

    def detail(self) -> str:
        return ", ".join(
            ("DESC " if c.descending else "") + _canonical_expression(c.expression)
            for c in self.conditions
        )


class DistinctOp(PhysicalOperator):
    """Streaming dedup, first occurrence wins (keeps sorted order intact)."""

    name = "Distinct"

    def __init__(
        self, child: PhysicalOperator, stats: EvalStats, estimate: float | None
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child

    def _run(self, binding: Binding) -> Iterator[Binding]:
        seen: set[tuple] = set()
        for row in self.child.execute(binding):
            key = tuple(sorted((str(k), group_key(v)) for k, v in row.items()))
            if key not in seen:
                seen.add(key)
                yield row


class SliceOp(PhysicalOperator):
    """OFFSET/LIMIT window; stops pulling as soon as the window is full."""

    name = "Slice"

    def __init__(
        self,
        child: PhysicalOperator,
        limit: int | None,
        offset: int,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.limit = limit
        self.offset = offset

    def _run(self, binding: Binding) -> Iterator[Binding]:
        if self.limit == 0:
            return
        produced = 0
        skipped = 0
        for row in self.child.execute(binding):
            if skipped < self.offset:
                skipped += 1
                continue
            yield row
            produced += 1
            if self.limit is not None and produced >= self.limit:
                return

    def batch_dictionary(self) -> "TermDictionary | None":
        return self.child.batch_dictionary()

    def _batches(self, binding: Binding) -> Iterator[Batch]:
        """The same window over id batches: an array slice per batch."""
        if self.limit == 0:
            return
        skip = self.offset
        remaining = self.limit
        for batch in self.child.execute_batches(binding):
            if skip >= batch.count:
                skip -= batch.count
                continue
            stop = batch.count
            if remaining is not None:
                stop = min(stop, skip + remaining)
            if skip or stop < batch.count:
                batch = Batch(
                    {v: column[skip:stop] for v, column in batch.columns.items()},
                    stop - skip,
                )
            skip = 0
            yield batch
            if remaining is not None:
                remaining -= batch.count
                if not remaining:
                    return

    def detail(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.offset:
            parts.append(f"offset={self.offset}")
        return " ".join(parts)


class AggregateOp(PhysicalOperator):
    """Blocking: GROUP BY / aggregate projection / HAVING over decoded rows.

    The general implementation: any input, any expression. An aggregate
    directly over one vectorized BGP with plain-variable keys and arguments
    runs as :class:`~repro.sparql.vectorized.BatchAggregateOp` instead,
    which inherits :meth:`_aggregate` for data its id-space form cannot
    hold.
    """

    name = "Aggregate"

    def __init__(
        self,
        child: PhysicalOperator,
        projections: tuple[Projection, ...],
        group_by: tuple[Expression, ...],
        having: Expression | None,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.projections = projections
        self.group_by = group_by
        self.having = having

    def _run(self, binding: Binding) -> Iterator[Binding]:
        return self._aggregate(list(self.child.execute(binding)))

    def _aggregate(self, solutions: list[Binding]) -> Iterator[Binding]:
        """Group decoded solutions and evaluate every projection per group."""
        groups: dict[tuple, list[Binding]] = {}
        if self.group_by:
            for solution in solutions:
                key = tuple(
                    group_key(try_evaluate(expr, solution)) for expr in self.group_by
                )
                groups.setdefault(key, []).append(solution)
        else:
            groups[()] = solutions  # implicit single group (may be empty)

        for _, members in sorted(groups.items(), key=lambda kv: str(kv[0])):
            representative = members[0] if members else {}
            row: Binding = {}
            for projection in self.projections:
                if projection.expression is None:
                    value = representative.get(projection.variable)
                else:
                    try:
                        value = to_term(
                            eval_group_expr(projection.expression, members, representative)
                        )
                    except ExprError:
                        # repro: swallow(an erroring group projection
                        # leaves the variable unbound, per the spec)
                        value = None
                if value is not None:
                    row[projection.variable] = value
            if self.having is not None:
                try:
                    if not ebv(eval_group_expr(self.having, members, representative)):
                        continue
                except ExprError:
                    # repro: swallow(a HAVING error excludes the
                    # group, per the SPARQL spec)
                    continue
            yield row

    def detail(self) -> str:
        if not self.group_by:
            return "implicit group"
        return "group by " + ", ".join(
            _canonical_expression(e) for e in self.group_by
        )


def operator_span(op: PhysicalOperator) -> Span:
    """Build the span tree of one executed operator tree.

    Spans are assembled post-hoc from the operators' accumulated timers
    (one span per operator, nested like the plan), so the engine can hang
    the whole execution under its ``sparql.query`` span without paying a
    per-row tracing cost during execution.
    """
    span = Span.manual(
        f"op.{op.name}",
        op.wall_ns,
        detail=op.detail(),
        actual_rows=op.actual_rows,
        estimated_rows=op.estimated_rows,
        executions=op.executions,
    )
    for child in op.children:
        span.add_child(operator_span(child))
    return span


# --------------------------------------------------------------------------- #
# Logical → physical lowering
# --------------------------------------------------------------------------- #


def build_plan(
    node: LogicalNode,
    store: TripleSource,
    stats: EvalStats,
    estimator: CardinalityEstimator | None = None,
    optimize: bool = True,
) -> PhysicalOperator:
    """Lower a logical plan into an executable operator tree.

    ``estimator`` drives both greedy BGP ordering and the per-operator
    ``estimated_rows`` annotations; pass ``None`` to skip estimation
    entirely (no store access, no estimates in EXPLAIN).
    ``optimize=False`` keeps each BGP's patterns in textual order as one
    component — the baseline the C10 benchmark compares against. Either
    way a BGP lowers onto :class:`~repro.sparql.vectorized.VectorizedBGP`
    over :func:`~repro.store.base.as_id_scan_source` of the store.
    """
    builder = _Builder(store, stats, estimator, optimize)
    return builder.build(node)


class _Builder:
    def __init__(
        self,
        store: TripleSource,
        stats: EvalStats,
        estimator: CardinalityEstimator | None,
        optimize: bool,
    ) -> None:
        self.source = as_id_scan_source(store)
        self.stats = stats
        self.estimator = estimator
        self.optimize = optimize
        self._total = estimator.total_triples() if estimator is not None else None

    # -- estimate arithmetic (None-propagating) ----------------------------

    def _join_estimate(
        self, left: float | None, right: float | None, shared: bool
    ) -> float | None:
        if left is None or right is None:
            return None
        product = left * right
        if shared and self._total:
            return product / self._total
        return product

    @staticmethod
    def _filter_estimate(child: float | None) -> float | None:
        if child is None:
            return None
        return child / 3.0

    # -- dispatch -----------------------------------------------------------

    def build(self, node: LogicalNode) -> PhysicalOperator:
        if isinstance(node, LogicalBGP):
            return self._build_bgp(node)
        if isinstance(node, LogicalJoin):
            left = self.build(node.left)
            right = self.build(node.right)
            shared = bool(
                possible_variables(node.left) & possible_variables(node.right)
            )
            estimate = self._join_estimate(
                left.estimated_rows, right.estimated_rows, shared
            )
            return NestedLoopJoin(left, right, self.stats, estimate)
        if isinstance(node, LogicalLeftJoin):
            left = self.build(node.left)
            right = self.build(node.right)
            estimate = self._join_estimate(left.estimated_rows, right.estimated_rows, True)
            if estimate is not None and left.estimated_rows is not None:
                estimate = max(estimate, left.estimated_rows)
            return LeftJoinOp(left, right, self.stats, estimate)
        if isinstance(node, LogicalUnion):
            branches = tuple(self.build(b) for b in node.branches)
            estimates = [b.estimated_rows for b in branches]
            estimate = None if any(e is None for e in estimates) else sum(estimates)
            return UnionOp(branches, self.stats, estimate)
        if isinstance(node, LogicalFilter):
            child = self.build(node.input)
            return FilterOp(
                child,
                node.expression,
                self.stats,
                self._filter_estimate(child.estimated_rows),
            )
        if isinstance(node, LogicalExtend):
            child = self.build(node.input)
            return ExtendOp(
                child, node.variable, node.expression, self.stats, child.estimated_rows
            )
        if isinstance(node, LogicalValues):
            estimate = float(len(node.pattern.rows)) if self.estimator else None
            return ValuesOp(node.pattern, self.stats, estimate)
        if isinstance(node, LogicalProject):
            child = self.build(node.input)
            return ProjectOp(
                child, node.projections, node.select_all, self.stats, child.estimated_rows
            )
        if isinstance(node, LogicalPrune):
            if isinstance(node.input, LogicalBGP):
                # Late materialization: push the projection-pruned variable
                # set into the BGP so only observable ids get decoded. The
                # lowering returns rows already restricted to the pruned
                # set (plus nothing else), so no PruneOp is needed unless
                # filters forced extra variables into the rows.
                return self._build_bgp(
                    node.input, needed=frozenset(node.variables)
                )
            child = self.build(node.input)
            return PruneOp(child, node.variables, self.stats, child.estimated_rows)
        if isinstance(node, LogicalAggregate):
            return self._build_aggregate(node)
        if isinstance(node, LogicalDistinct):
            child = self.build(node.input)
            return DistinctOp(child, self.stats, child.estimated_rows)
        if isinstance(node, LogicalSort):
            child = self.build(node.input)
            return SortOp(child, node.conditions, self.stats, child.estimated_rows)
        if isinstance(node, LogicalSlice):
            child = self._build_topk(node) or self.build(node.input)
            estimate = child.estimated_rows
            if estimate is not None:
                estimate = max(0.0, estimate - node.offset)
                if node.limit is not None:
                    estimate = min(estimate, float(node.limit))
            return SliceOp(child, node.limit, node.offset, self.stats, estimate)
        raise TypeError(f"unknown logical node: {node!r}")

    # -- batch consumers directly above a vectorized BGP ----------------------

    @staticmethod
    def _bgp_below(node: LogicalNode) -> LogicalBGP | None:
        """The BGP a batch consumer would sit on: ``node`` or ``Prune(node)``."""
        if isinstance(node, LogicalPrune):
            node = node.input
        if isinstance(node, LogicalBGP) and node.patterns:
            return node
        return None

    def _build_aggregate(self, node: LogicalAggregate) -> PhysicalOperator:
        """``AggregateOp`` over rows, or ``BatchAggregateOp`` over id batches
        when the aggregate sits directly on one vectorized BGP component and
        its shape is covered (``plan_batch_aggregate``)."""
        child = self.build(node.input)
        estimate = child.estimated_rows
        if not node.group_by:
            estimate = 1.0 if self.estimator else None
        bgp = self._bgp_below(node.input)
        if bgp is not None:
            from .vectorized import (
                BatchAggregateOp,
                VectorizedBGP,
                plan_batch_aggregate,
            )

            planned = plan_batch_aggregate(
                node.projections, node.group_by, node.having,
                certain_variables(bgp),
            )
            if planned is not None and isinstance(child, VectorizedBGP):
                group_vars, specs = planned
                return BatchAggregateOp(
                    child, node.projections, node.group_by, group_vars, specs,
                    self.stats, estimate,
                )
        return AggregateOp(
            child, node.projections, node.group_by, node.having, self.stats, estimate
        )

    def _build_topk(self, node: LogicalSlice) -> PhysicalOperator | None:
        """``Slice(Sort(Project(BGP)))`` ordered by one projected variable:
        the Sort subtree with a ``TopKOp`` choosing candidates in id space
        below the projection. ``None`` when the shape is anything else."""
        sort = node.input
        if not (
            node.limit is not None
            and node.limit + node.offset > 0
            and isinstance(sort, LogicalSort)
            and len(sort.conditions) == 1
            and isinstance(sort.conditions[0].expression, VariableExpr)
        ):
            return None
        project = sort.input
        if not (
            isinstance(project, LogicalProject)
            and not project.select_all
            and all(p.expression is None for p in project.projections)
        ):
            return None
        variable = sort.conditions[0].expression.variable
        bgp = self._bgp_below(project.input)
        if (
            bgp is None
            or variable not in certain_variables(bgp)
            or all(p.variable != variable for p in project.projections)
        ):
            return None
        from .vectorized import TopKOp, VectorizedBGP

        source = self.build(project.input)
        if isinstance(source, VectorizedBGP):
            source = TopKOp(
                source, variable, sort.conditions[0].descending,
                node.limit + node.offset, self.stats,
            )
        projected = ProjectOp(
            source, project.projections, False, self.stats, source.estimated_rows
        )
        return SortOp(
            projected, sort.conditions, self.stats, projected.estimated_rows
        )

    # -- BGP lowering --------------------------------------------------------

    def _absorb(
        self,
        op: PhysicalOperator,
        pending: list[Expression],
        covered: set[Variable] | None = None,
    ) -> PhysicalOperator:
        """Wrap ``op`` in a :class:`FilterOp` per pending filter whose
        variables ``covered`` holds (every one when ``None``), in order,
        and drop those from ``pending``."""
        still = []
        for expression in pending:
            if covered is None or expression_variables(expression) <= covered:
                op = FilterOp(
                    op, expression, self.stats, self._filter_estimate(op.estimated_rows)
                )
            else:
                still.append(expression)
        pending[:] = still
        return op

    def _build_bgp(
        self, node: LogicalBGP, needed: frozenset[Variable] | None = None
    ) -> PhysicalOperator:
        """Order, segment, place the filters, lower each component, compose.

        The ordered patterns split into variable-disjoint components that
        compose with :class:`HashJoin`. Every filter is placed once: in the
        first component that covers its variables, else as a
        :class:`FilterOp` above the first join that does, else on top. A
        component becomes one ``VectorizedBGP`` (:meth:`_lower_batches`).
        ``needed`` is the late-materialization contract it gets from an
        enclosing projection prune: only those variables, plus what the
        spanning filters read, are decoded.
        """
        if not node.patterns:
            op: PhysicalOperator = Singleton(self.stats, 1.0 if self.estimator else None)
            return self._absorb(op, list(node.filters))

        if self.optimize and self.estimator is not None:
            ordered = self.estimator.order(node.patterns)
        else:
            ordered = list(node.patterns)
        components = self._segment(ordered) if self.optimize else [ordered]
        component_variables = [
            set().union(*(pattern.variables() for pattern in component))
            for component in components
        ]
        placed: list[list[Expression]] = [[] for _ in components]
        spanning: list[Expression] = []
        for expression in node.filters:
            variables = expression_variables(expression)
            home = next(
                (
                    filters
                    for filters, covered_here in zip(placed, component_variables)
                    if variables <= covered_here
                ),
                spanning,
            )
            home.append(expression)
        # Spanning filters read decoded rows: their variables get decoded too.
        spanning_vars = set().union(*map(expression_variables, spanning))

        combined: PhysicalOperator | None = None
        covered: set[Variable] = set()
        for component, component_vars, local in zip(
            components, component_variables, placed
        ):
            keep = None
            if needed is not None:
                keep = frozenset((needed | spanning_vars) & component_vars)
            op = self._lower_batches(component, local, keep)
            if combined is None:
                combined = op
            else:
                combined = HashJoin(
                    combined,
                    op,
                    frozenset(component_vars),
                    self.stats,
                    self._join_estimate(
                        combined.estimated_rows, op.estimated_rows, False
                    ),
                )
            covered |= component_vars
            combined = self._absorb(combined, spanning, covered)

        assert combined is not None
        combined = self._absorb(combined, spanning)  # covered by no component
        if needed is not None and (spanning_vars - needed) & covered:
            # Spanning filters forced extra variables to be decoded;
            # restore exact Prune(BGP) output on top.
            combined = PruneOp(combined, needed, self.stats, combined.estimated_rows)
        return combined

    def _pattern_estimate(self, pattern: TriplePatternNode) -> float | None:
        if self.estimator is None:
            return None
        return self.estimator.pattern_cardinality(pattern)

    def _lower_batches(
        self,
        component: list[TriplePatternNode],
        filters: list[Expression],
        keep: frozenset[Variable] | None,
    ) -> PhysicalOperator:
        """One component as a :class:`~repro.sparql.vectorized.VectorizedBGP`;
        the filters become masks over its id batches and ``keep`` (when
        not ``None``) the only variables its row adaptor decodes."""
        from .vectorized import VectorizedBGP

        pattern_estimates = [self._pattern_estimate(p) for p in component]
        estimate = pattern_estimates[0]
        for pattern_estimate in pattern_estimates[1:]:
            estimate = self._join_estimate(estimate, pattern_estimate, True)
        for _ in filters:
            estimate = self._filter_estimate(estimate)
        return VectorizedBGP(
            self.source,
            tuple(component),
            tuple(filters),
            keep,
            self.stats,
            estimate,
            pattern_estimates,
        )

    @staticmethod
    def _segment(ordered: list[TriplePatternNode]) -> list[list[TriplePatternNode]]:
        """Split greedily ordered patterns into variable-disjoint components.

        The greedy ordering always prefers connected patterns, so a pattern
        sharing no variable with everything chosen so far starts a component
        that stays disjoint from all earlier ones.
        """
        components: list[list[TriplePatternNode]] = []
        seen_vars: set[Variable] = set()
        for pattern in ordered:
            pattern_vars = pattern.variables()
            if not components or (pattern_vars and not (pattern_vars & seen_vars)):
                components.append([pattern])
            else:
                components[-1].append(pattern)
            seen_vars |= pattern_vars
        return components


def _pattern_mask(pattern: TriplePatternNode) -> str:
    """Bound-position signature of a pattern: ``b``/``v`` per S/P/O slot —
    the key the planner estimated the pattern under."""
    return "".join(
        "v" if isinstance(term, Variable) else "b"
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def _pattern_predicate(pattern: TriplePatternNode) -> str | None:
    predicate = pattern.predicate
    return None if isinstance(predicate, Variable) else predicate.n3()


def scan_observations(root: PhysicalOperator | None) -> list[dict]:
    """Estimated-vs-actual cardinality per pattern scan of an executed plan.

    Walks the operator tree for ``IdScan`` nodes (matched by name so this
    module need not import :mod:`repro.sparql.vectorized`) and reports each
    one's planner estimate against the rows it actually produced, in the
    dict shape :class:`repro.obs.querylog.ScanObservation` parses.

    ``leading`` marks scans that executed exactly once against an empty
    ambient binding — the first child of a once-executed BGP — and handed
    on every row they matched. Only those are directly comparable to the
    planner's unconditioned estimate; inner scans run conditioned on outer
    rows, a first stage a ``LIMIT`` stopped early or the shed tier sampled
    counts the rows somebody asked for, and in both cases estimate and
    actual measure different quantities.
    """
    observations: list[dict] = []
    if root is None:
        return observations

    def visit(node: PhysicalOperator, leading: bool) -> None:
        name = node.name
        pattern = getattr(node, "pattern", None)
        if isinstance(pattern, TriplePatternNode) and name == "IdScan":
            if not node.executions:
                return  # never pulled (e.g. short-circuited LIMIT)
            observations.append({
                "predicate": _pattern_predicate(pattern),
                "mask": _pattern_mask(pattern),
                "est": node.estimated_rows,
                "actual": node.actual_rows,
                "executions": node.executions,
                "leading": leading and node.executions <= 1 and node.exhausted,
            })
            return
        children = node.children
        if not children:
            return
        if name == "VectorizedBGP":
            # Children are the component's scans in join order; only the
            # first runs unconditioned, and only when the BGP itself did —
            # over all of its first stage, not a sample of it.
            first = leading and node.executions <= 1 and not _sampled(node)
            for index, child in enumerate(children):
                visit(child, first and index == 0)
        elif name in ("NestedLoopJoin", "LeftJoin"):
            visit(children[0], leading)
            for child in children[1:]:
                visit(child, False)
        else:
            # Unary wrappers (Filter/Project/Slice/...), HashJoin (both
            # sides run against the ambient context), Union branches.
            for child in children:
                visit(child, leading)

    visit(root, True)
    return observations


def _sampled(bgp: PhysicalOperator) -> bool:
    """Did this ``VectorizedBGP`` hand on fewer first-stage rows than the
    stage holds (``sample_first_stage`` drew ``m`` of ``N``)?"""
    sampled = getattr(bgp, "sampled", None)
    return sampled is not None and sampled[0] < sampled[1]


# Batch consumers above a BGP, as the query log names them.
_BATCH_CONSUMERS = {"BatchAggregate": "agg", "TopK": "topk"}


def execution_strategy(root: PhysicalOperator | None) -> str:
    """How a plan executed, as the query log has always spelled it:
    ``vectorized:binary`` for a plan with a BGP (the scan-and-probe
    pipeline), then ``+agg`` / ``+topk`` when the id batches fed a batch
    aggregate or top-k selection instead of the row adaptor and
    ``+sample`` when a BGP ran over a sample of its first stage;
    ``iterator`` for a plan that has no BGP (``VALUES`` alone, an empty
    group), ``none`` for no plan at all (DESCRIBE without a pattern)."""
    if root is None:
        return "none"
    has_bgp = False
    consumers: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.name == "VectorizedBGP":
            has_bgp = True
            if _sampled(node):
                consumers.add("sample")
        elif node.name in _BATCH_CONSUMERS:
            consumers.add(_BATCH_CONSUMERS[node.name])
        stack.extend(node.children)
    if has_bgp:
        return "+".join(["vectorized:binary", *sorted(consumers)])
    return "iterator"
