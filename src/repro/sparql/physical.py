"""Physical operators: the execution stage of the query pipeline.

One protocol: every operator's ``execute_batches()`` yields :class:`Batch`
objects — aligned int64 id columns, one per variable — pulled one at a
time, so LIMIT-ed exploratory queries (the dominant shape in the survey's
interactive setting) touch only as much of the store as they need. An id
>= 0 is the store dictionary's, -1 an unbound cell, and an id <= -2 a term
the plan computed that the store does not hold, kept by the plan's
:class:`~repro.sparql.termtable.TermTable` (every operator's ``table``).
Terms are decoded only where an expression is evaluated, once per distinct
combination of the ids it reads. Each operator carries its planner
*estimate* and counts the rows it *actually* produced (EXPLAIN ANALYZE:
:meth:`PhysicalOperator.explain`).

Every leaf that touches the store is a
:class:`~repro.sparql.vectorized.VectorizedBGP`. Above it, a join with a
BGP on the right whose shared variables the left always binds continues
the left's batches through that BGP's probe stages; any other join, and
OPTIONAL, is a :class:`JoinOp` — a hash join on the shared columns, the
right side run once, -1 compatible with anything. UNION pads missing
columns with -1; DISTINCT is ``np.unique`` over rows; ORDER BY ranks each
key's distinct ids by ``term_sort_key`` and sorts by ``lexsort``; an
aggregate emits one batch.

:func:`build_plan` lowers a logical plan (:mod:`repro.sparql.plan`) into an
operator tree, ordering BGP patterns with a
:class:`~repro.sparql.optimizer.CardinalityEstimator` and applying
pushed-down filters at the earliest point their variables are covered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..obs import Span
from ..rdf.terms import Variable, term_sort_key
from ..store.base import TripleSource, as_id_scan_source, ragged_rows
from .expr import (
    Binding,
    ExprError,
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
from .results import block_rows, decode_block
from .termtable import UNBOUND, TermTable

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
    when unset is one attribute check per batch.
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
    one per variable. Every batch of one operator has the same variables."""

    columns: "dict[Variable, np.ndarray]"
    count: int


# --------------------------------------------------------------------------- #
# Batch primitives
# --------------------------------------------------------------------------- #


def _distinct_keys(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of aligned id columns: ``(keys (k, m), inverse (n,))``.

    The grouping primitive of expressions (one evaluation per distinct
    combination), of hash joins and of GROUP BY.
    """
    if len(columns) == 1:
        unique, inverse = np.unique(columns[0], return_inverse=True)
        return unique[:, None], inverse
    keys, inverse = np.unique(
        np.stack(columns, axis=1), axis=0, return_inverse=True
    )
    return keys, inverse.reshape(-1)


def _compress(batch: Batch, mask: np.ndarray) -> Batch:
    """The rows of ``batch`` where ``mask`` holds, in their original order."""
    count = int(np.count_nonzero(mask))
    if count == batch.count:
        return batch
    return Batch({v: column[mask] for v, column in batch.columns.items()}, count)


def _take(batch: Batch, rows: np.ndarray) -> Batch:
    return Batch({v: column[rows] for v, column in batch.columns.items()}, len(rows))


def _concat(batches: list[Batch], variables) -> Batch:
    """One batch holding ``variables`` of every input batch, in order."""
    empty = np.empty(0, dtype=np.int64)
    return Batch(
        {v: np.concatenate([empty, *(b.columns[v] for b in batches)]) for v in variables},
        sum(batch.count for batch in batches),
    )


def _ragged_gather(
    counts: np.ndarray, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-key match lists onto per-row output positions.

    Given ``counts[k]`` matches for key ``k`` and ``inverse[i]`` = key of
    input row ``i``, returns ``(row_index, match_index)``: for every output
    row, which input row it extends and which slot of the concatenated
    match arrays it takes. Pure integer arithmetic — no Python loop.
    """
    per_row = counts[inverse]
    offsets = np.cumsum(counts) - counts
    return np.repeat(np.arange(len(inverse)), per_row), ragged_rows(offsets[inverse], per_row)


def _rows(batch: Batch, table: TermTable) -> list[Binding]:
    """A batch as solution dicts, unbound cells left out."""
    names = list(batch.columns)
    return block_rows(names, decode_block(names, batch.columns, batch.count, table))


def _per_combination(
    expression: Expression, batch: Batch, table: TermTable,
    value: Callable[[Binding], object], dtype,
) -> np.ndarray:
    """``value(row)`` for every row of ``batch``, called once per distinct
    combination of the ids of ``expression``'s variables."""
    present = [v for v in expression_variables(expression) if v in batch.columns]
    if not present:
        return np.full(batch.count, value({}), dtype=dtype)
    keys, inverse = _distinct_keys([batch.columns[v] for v in present])
    decoded = [table.decode_batch(keys[:, at]) for at in range(len(present))]
    results = [
        value({v: term for v, term in zip(present, terms) if term is not None})
        for terms in zip(*decoded)
    ]
    return np.array(results, dtype=dtype)[inverse]


def filter_passes(expression: Expression, row: Binding) -> bool:
    """FILTER row semantics: effectively true, and an error excludes."""
    try:
        return ebv(evaluate(expression, row))
    except ExprError:
        # repro: swallow(a FILTER error excludes the row, per the
        # SPARQL spec)
        return False


def row_mask(expression: Expression, batch: Batch, table: TermTable) -> np.ndarray:
    """Which rows pass FILTER ``expression`` under row semantics."""
    return _per_combination(
        expression, batch, table, lambda row: filter_passes(expression, row), bool
    )


def _evaluated(expression: Expression, batch: Batch, table: TermTable) -> np.ndarray:
    """The id of ``expression``'s value on every row, -1 where it errors."""
    if isinstance(expression, VariableExpr):
        column = batch.columns.get(expression.variable)
        return np.full(batch.count, UNBOUND) if column is None else column

    def value(row: Binding) -> int:
        try:
            return table.id(to_term(evaluate(expression, row)))
        except ExprError:
            # repro: swallow(an erroring BIND or SELECT expression leaves
            # its variable unbound, per the spec)
            return UNBOUND

    return _per_combination(expression, batch, table, value, np.int64)


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #


class PhysicalOperator:
    """Base class: wraps ``_batches`` with actual-row accounting.

    When the owning :class:`EvalStats` carries a tracer, execution also
    accumulates inclusive wall-clock time into ``wall_ns``. Timing is
    suspension-aware: a pull-based operator is only charged for the
    segments between being resumed and yielding its next batch, never for
    the time its consumer holds the generator suspended.
    """

    name = "Operator"

    def __init__(
        self,
        table: TermTable,
        stats: EvalStats,
        estimate: float | None,
        children: tuple["PhysicalOperator", ...] = (),
    ) -> None:
        self.table = table
        self.stats = stats
        self.estimated_rows = estimate
        self.actual_rows = 0
        self.executions = 0
        self.children = children
        self.wall_ns = 0
        self.timed = False

    def execute_batches(self) -> Iterator[Batch]:
        """The operator's solutions, one id batch at a time."""
        self.executions += 1
        timed = self.stats.tracer is not None
        if timed:
            self.timed = True
        clock = time.perf_counter_ns
        started = clock()
        for batch in self._batches():
            if timed:
                self.wall_ns += clock() - started
            self.actual_rows += batch.count
            self.stats.record_rows(self.name, batch.count)
            yield batch
            started = clock()
        if timed:
            self.wall_ns += clock() - started

    def _batches(self) -> Iterator[Batch]:  # pragma: no cover
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
    """The empty BGP: one solution that binds nothing."""

    name = "Singleton"

    def _batches(self) -> Iterator[Batch]:
        yield Batch({}, 1)


def _keys_of(batch: Batch, variables: list[Variable]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_distinct_keys` of ``variables``; none is one key for all."""
    if not variables:
        return np.empty((1, 0), dtype=np.int64), np.zeros(batch.count, dtype=np.int64)
    return _distinct_keys([batch.columns[v] for v in variables])


def _compatible(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of the compatible rows of two distinct-key arrays: equal
    where both are bound. Without unbound cells, one sort of both."""
    if left.shape[1] and (left != UNBOUND).all() and (right != UNBOUND).all():
        _, codes = np.unique(np.concatenate((left, right)), axis=0, return_inverse=True)
        codes = codes.reshape(-1)
        return np.intersect1d(codes[: len(left)], codes[len(left):], return_indices=True)[1:]
    at_left, at_right = [], []
    step = max(1, (1 << 22) // max(1, right.size))  # bounds the broadcast
    for start in range(0, len(left), step):
        part = left[start : start + step, None]
        hits = ((part == right) | (part == UNBOUND) | (right == UNBOUND)).all(axis=2)
        found = np.nonzero(hits)
        at_left.append(found[0] + start)
        at_right.append(found[1])
    return np.concatenate(at_left), np.concatenate(at_right)


class JoinOp(PhysicalOperator):
    """Hash join on the shared columns: the right side runs once, when the
    first left batch arrives, and every left batch is matched against it.
    Output rows keep left order, then right order, as a nested loop would.

    ``optional`` makes it OPTIONAL: a left row that no right row matches
    under ``condition`` (the optional group's FILTERs, read on the merged
    row) is kept as it is, -1 in the right's columns.
    """

    def __init__(
        self, left: PhysicalOperator, right: PhysicalOperator, optional: bool,
        condition: tuple[Expression, ...], estimate: float | None,
    ) -> None:
        super().__init__(left.table, left.stats, estimate, (left, right))
        self.name = "LeftJoin" if optional else "Join"
        self.optional, self.condition = optional, condition

    def detail(self) -> str:
        return " && ".join(map(_canonical_expression, self.condition))

    def _batches(self) -> Iterator[Batch]:
        left, right = self.children
        kept = None
        for batch in left.execute_batches():
            if kept is None:
                parts = list(right.execute_batches())
                if not parts and not self.optional:
                    return
                kept = _concat(parts, parts[0].columns) if parts else Batch({}, 0)
                shared = [v for v in batch.columns if v in kept.columns]
                keys, inverse = _keys_of(kept, shared)
                by_key = np.argsort(inverse, kind="stable")
                per_key = np.bincount(inverse, minlength=len(keys))
            left_keys, left_inverse = _keys_of(batch, shared)
            at_left, at_right = _compatible(left_keys, keys)
            # each compatible key pair's right rows, then per left key in
            # right order, then per left row
            pair, slot = _ragged_gather(per_key, at_right)
            matched, owner = by_key[slot], at_left[pair]
            order = np.lexsort((matched, owner))
            rows, match = _ragged_gather(
                np.bincount(owner, minlength=len(left_keys)), left_inverse
            )
            joined = self._merged(batch, kept, rows, matched[order][match])
            if joined.count:
                yield joined

    def _merged(
        self, left: Batch, right: Batch, rows: np.ndarray, matches: np.ndarray
    ) -> Batch:
        """Left row ``rows[i]`` merged with right row ``matches[i]``; under
        OPTIONAL, each left row that kept no match, in left order."""

        def merge(rows: np.ndarray, matches: np.ndarray) -> Batch:
            columns = {v: column[rows] for v, column in left.columns.items()}
            for v, column in right.columns.items():  # a -1 match adds -1s
                theirs = np.where(matches >= 0, column[matches], UNBOUND)
                mine = columns.get(v)
                columns[v] = theirs if mine is None else np.where(
                    mine == UNBOUND, theirs, mine
                )
            return Batch(columns, len(rows))

        joined = merge(rows, matches)
        for expression in self.condition:
            keep = row_mask(expression, joined, self.table)
            joined, rows = _compress(joined, keep), rows[keep]
        if self.optional:
            alone = np.setdiff1d(np.arange(left.count), rows)
            if len(alone):
                lone = merge(alone, np.full(len(alone), -1))
                order = np.argsort(np.concatenate((rows, alone)), kind="stable")
                joined = _take(_concat([joined, lone], joined.columns), order)
        return joined


class UnionOp(PhysicalOperator):
    """Each branch in turn, its batches padded to ``variables`` with -1."""

    name = "Union"

    def __init__(
        self, branches: tuple[PhysicalOperator, ...], variables: list[Variable],
        estimate: float | None,
    ) -> None:
        super().__init__(branches[0].table, branches[0].stats, estimate, branches)
        self.variables = variables

    def _batches(self) -> Iterator[Batch]:
        for branch in self.children:
            for columns, count in branch.execute_batches():
                unbound = np.full(count, UNBOUND)
                yield Batch({v: columns.get(v, unbound) for v in self.variables}, count)


class ValuesOp(PhysicalOperator):
    """The VALUES rows as one batch; ``UNDEF`` is -1."""

    name = "Values"

    def __init__(self, table: TermTable, pattern: ValuesPattern, stats: EvalStats,
                 estimate: float | None) -> None:
        super().__init__(table, stats, estimate)
        self.pattern = pattern

    def _batches(self) -> Iterator[Batch]:
        rows = self.pattern.rows
        if rows:
            yield Batch({
                variable: self.table.ids(row[at] for row in rows)
                for at, variable in enumerate(self.pattern.variables)
            }, len(rows))

    def detail(self) -> str:
        return f"{len(self.pattern.rows)} rows"


class _Unary(PhysicalOperator):
    """An operator over one child, in its child's plan (table, stats)."""

    def __init__(self, child: PhysicalOperator, estimate: float | None) -> None:
        super().__init__(child.table, child.stats, estimate, (child,))
        self.child = child


class FilterOp(_Unary):
    """Drops rows whose expression errors or is not effectively true: the
    filter above anything but one BGP component (inside a
    :class:`~repro.sparql.vectorized.VectorizedBGP` it is a mask there)."""

    name = "Filter"

    def __init__(self, child, expression: Expression, estimate) -> None:
        super().__init__(child, estimate)
        self.expression = expression

    def _batches(self) -> Iterator[Batch]:
        for batch in self.child.execute_batches():
            batch = _compress(batch, row_mask(self.expression, batch, self.table))
            if batch.count:
                yield batch

    def detail(self) -> str:
        return _canonical_expression(self.expression)


class ExtendOp(_Unary):
    """BIND: evaluation errors leave the row unchanged, rebinding drops it."""

    name = "Extend"

    def __init__(self, child, variable: Variable, expression: Expression) -> None:
        super().__init__(child, child.estimated_rows)
        self.variable, self.expression = variable, expression

    def _batches(self) -> Iterator[Batch]:
        for batch in self.child.execute_batches():
            values = _evaluated(self.expression, batch, self.table)
            columns = dict(batch.columns)
            bound = columns.get(self.variable)
            if bound is None:
                columns[self.variable] = values
                yield Batch(columns, batch.count)
                continue
            columns[self.variable] = np.where(bound == UNBOUND, values, bound)
            keep = (bound == UNBOUND) | (values == UNBOUND)
            batch = _compress(Batch(columns, batch.count), keep)
            if batch.count:
                yield batch

    def detail(self) -> str:
        return f"?{self.variable} := {_canonical_expression(self.expression)}"


class ProjectOp(_Unary):
    """SELECT's columns: a pick for a plain variable, the expression's
    value ids for an expression; ``select_all`` passes every column."""

    name = "Project"

    def __init__(self, child, projections: tuple[Projection, ...], select_all: bool) -> None:
        super().__init__(child, child.estimated_rows)
        self.projections, self.select_all = projections, select_all

    def _batches(self) -> Iterator[Batch]:
        for batch in self.child.execute_batches():
            if self.select_all:
                yield batch
                continue
            columns = {}
            for projection in self.projections:
                if projection.expression is not None:
                    columns[projection.variable] = _evaluated(
                        projection.expression, batch, self.table
                    )
                elif projection.variable in batch.columns:
                    columns[projection.variable] = batch.columns[projection.variable]
            yield Batch(columns, batch.count)

    def detail(self) -> str:
        if self.select_all:
            return "*"
        return ", ".join(f"?{p.variable}" for p in self.projections)


class _Blocking(_Unary):
    def _input(self) -> Batch | None:
        """The whole input as one batch, ``None`` when there is none."""
        batches = list(self.child.execute_batches())
        return _concat(batches, batches[0].columns) if batches else None


class SortOp(_Blocking):
    """Blocking: ranks each ORDER BY key's distinct value ids by
    ``term_sort_key`` (unbound lowest) and sorts the rows by ``lexsort``
    of those ranks, stably."""

    name = "Sort"

    def __init__(self, child, conditions: tuple[OrderCondition, ...]) -> None:
        super().__init__(child, child.estimated_rows)
        self.conditions = conditions

    def _batches(self) -> Iterator[Batch]:
        batch = self._input()
        if batch is None:
            return
        ranked = []
        for condition in self.conditions:
            ids = _evaluated(condition.expression, batch, self.table)
            distinct, inverse = np.unique(ids, return_inverse=True)
            keys = [
                (0,) if term is None else term_sort_key(term)
                for term in self.table.decode_batch(distinct)
            ]
            rank = {key: at for at, key in enumerate(sorted(set(keys)))}
            ranks = np.array([rank[key] for key in keys], dtype=np.int64)[inverse]
            ranked.append(-ranks if condition.descending else ranks)
        yield _take(batch, np.lexsort(ranked[::-1]))

    def detail(self) -> str:
        return ", ".join(
            ("DESC " if c.descending else "") + _canonical_expression(c.expression)
            for c in self.conditions
        )


class DistinctOp(_Blocking):
    """Blocking: the first occurrence of every distinct row, in order."""

    name = "Distinct"

    def _batches(self) -> Iterator[Batch]:
        batch = self._input()
        if batch is None:
            return
        if not batch.columns:
            yield Batch({}, 1)
            return
        rows = np.stack(list(batch.columns.values()), axis=1)
        yield _take(batch, np.sort(np.unique(rows, axis=0, return_index=True)[1]))


class SliceOp(_Unary):
    """OFFSET/LIMIT window; stops pulling as soon as the window is full."""

    name = "Slice"

    def __init__(self, child, limit: int | None, offset: int, estimate) -> None:
        super().__init__(child, estimate)
        self.limit, self.offset = limit, offset

    def _batches(self) -> Iterator[Batch]:
        if self.limit == 0:
            return
        skip = self.offset
        remaining = self.limit
        for batch in self.child.execute_batches():
            if skip >= batch.count:
                skip -= batch.count
                continue
            stop = batch.count
            if remaining is not None:
                stop = min(stop, skip + remaining)
            if skip or stop < batch.count:
                batch = _take(batch, np.arange(skip, stop))
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


class AggregateOp(_Blocking):
    """Blocking: GROUP BY / aggregate projection / HAVING over decoded rows,
    one batch out.

    The general implementation: any input, any expression. An aggregate
    directly over one vectorized BGP with plain-variable keys and arguments
    runs as :class:`~repro.sparql.vectorized.BatchAggregateOp` instead,
    which falls back to :meth:`_aggregated` for data its id-space form
    cannot hold.
    """

    name = "Aggregate"

    def __init__(
        self, child, projections: tuple[Projection, ...],
        group_by: tuple[Expression, ...], having: Expression | None, estimate,
    ) -> None:
        super().__init__(child, estimate)
        self.projections, self.group_by, self.having = projections, group_by, having

    def _batches(self) -> Iterator[Batch]:
        batch = self._input()
        yield self._aggregated([] if batch is None else _rows(batch, self.table))

    def _aggregated(self, solutions: list[Binding]) -> Batch:
        """Group decoded solutions, evaluate every projection per group."""
        groups: dict[tuple, list[Binding]] = {}
        if self.group_by:
            for solution in solutions:
                key = tuple(
                    group_key(try_evaluate(expr, solution)) for expr in self.group_by
                )
                groups.setdefault(key, []).append(solution)
        else:
            groups[()] = solutions  # implicit single group (may be empty)

        rows = []
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
            rows.append(row)
        return Batch({
            p.variable: self.table.ids(row.get(p.variable) for row in rows)
            for p in self.projections
        }, len(rows))

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
    over :func:`~repro.store.base.as_id_scan_source` of the store, and
    every operator of the tree shares one :class:`TermTable`.
    """
    return _Builder(store, stats, estimator, optimize).build(node)


# A triple pattern and what the planner priced it at.
_Priced = tuple[TriplePatternNode, "float | None"]


class _Builder:
    def __init__(self, store: TripleSource, stats: EvalStats,
                 estimator: CardinalityEstimator | None, optimize: bool) -> None:
        self.source = as_id_scan_source(store)
        self.table = TermTable(self.source.dictionary)
        self.stats = stats
        self.estimator = estimator
        self.optimize = optimize
        self._total = estimator.total_triples() if estimator is not None else None

    # -- estimate arithmetic (None-propagating) ----------------------------

    def _join_estimate(self, left: float | None, right: float | None,
                       shared: bool) -> float | None:
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
            return self._build_join(node)
        if isinstance(node, LogicalLeftJoin):
            left = self.build(node.left)
            right, condition = node.right, []
            while isinstance(right, LogicalFilter):  # the group's FILTERs
                condition.append(right.expression)
                right = right.input
            right = self.build(right)
            estimate = self._join_estimate(left.estimated_rows, right.estimated_rows, True)
            if estimate is not None and left.estimated_rows is not None:
                estimate = max(estimate, left.estimated_rows)
            return JoinOp(left, right, True, tuple(condition), estimate)
        if isinstance(node, LogicalUnion):
            branches = tuple(self.build(b) for b in node.branches)
            estimates = [b.estimated_rows for b in branches]
            estimate = None if any(e is None for e in estimates) else sum(estimates)
            variables = sorted(possible_variables(node), key=str)
            return UnionOp(branches, variables, estimate)
        if isinstance(node, LogicalFilter):
            child = self.build(node.input)
            return FilterOp(
                child, node.expression, self._filter_estimate(child.estimated_rows)
            )
        if isinstance(node, LogicalExtend):
            return ExtendOp(self.build(node.input), node.variable, node.expression)
        if isinstance(node, LogicalValues):
            estimate = float(len(node.pattern.rows)) if self.estimator else None
            return ValuesOp(self.table, node.pattern, self.stats, estimate)
        if isinstance(node, LogicalProject):
            return ProjectOp(self.build(node.input), node.projections, node.select_all)
        if isinstance(node, LogicalPrune):
            if isinstance(node.input, LogicalBGP):
                return self._build_bgp(node.input, needed=frozenset(node.variables))
            return self._pruned(self.build(node.input), node.variables)
        if isinstance(node, LogicalAggregate):
            return self._build_aggregate(node)
        if isinstance(node, LogicalDistinct):
            child = self.build(node.input)
            return DistinctOp(child, child.estimated_rows)
        if isinstance(node, LogicalSort):
            return SortOp(self.build(node.input), node.conditions)
        if isinstance(node, LogicalSlice):
            child = self._build_topk(node) or self.build(node.input)
            estimate = child.estimated_rows
            if estimate is not None:
                estimate = max(0.0, estimate - node.offset)
                if node.limit is not None:
                    estimate = min(estimate, float(node.limit))
            return SliceOp(child, node.limit, node.offset, estimate)
        raise TypeError(f"unknown logical node: {node!r}")

    def _pruned(self, op: PhysicalOperator, variables) -> PhysicalOperator:
        """Projection pruning: a plain-variable projection of ``op``."""
        projections = tuple(Projection(v) for v in sorted(variables, key=lambda v: f"?{v}"))
        return ProjectOp(op, projections, False)

    def _build_join(self, node: LogicalJoin) -> PhysicalOperator:
        """A BGP on the right whose variables shared with the left are
        bound in every left solution continues the left's batches through
        its probe stages; anything else is a hash join."""
        left = self.build(node.left)
        shared = possible_variables(node.left) & possible_variables(node.right)
        right = node.right
        if (
            isinstance(right, LogicalBGP)
            and right.patterns
            and shared
            and shared <= certain_variables(node.left)
        ):
            ordered = _connected_first(self._priced(right.patterns), set(shared))
            bgp = self._lower_batches(ordered, list(right.filters), left)
            bgp.estimated_rows = self._join_estimate(
                left.estimated_rows, bgp.estimated_rows, True
            )
            return bgp
        right = self.build(right)
        estimate = self._join_estimate(
            left.estimated_rows, right.estimated_rows, bool(shared)
        )
        return JoinOp(left, right, False, (), estimate)

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
        """``AggregateOp`` over decoded rows, or ``BatchAggregateOp`` over id
        batches when the aggregate sits directly on one vectorized BGP
        component and its shape is covered (``plan_batch_aggregate``)."""
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
                    child, node.projections, node.group_by, group_vars, specs, estimate
                )
        return AggregateOp(child, node.projections, node.group_by, node.having, estimate)

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
                source, variable, sort.conditions[0].descending, node.limit + node.offset
            )
        return SortOp(ProjectOp(source, project.projections, False), sort.conditions)

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
                op = FilterOp(op, expression, self._filter_estimate(op.estimated_rows))
            else:
                still.append(expression)
        pending[:] = still
        return op

    def _priced(self, patterns) -> list[_Priced]:
        """The patterns in join order, each with its estimate: the
        ordering's own pricing, so each pattern is priced once per plan."""
        if self.estimator is None:
            return [(pattern, None) for pattern in patterns]
        if self.optimize:
            return self.estimator.order(patterns)
        return [(p, self.estimator.pattern_cardinality(p)) for p in patterns]

    def _build_bgp(
        self, node: LogicalBGP, needed: frozenset[Variable] | None = None
    ) -> PhysicalOperator:
        """Order, segment, place the filters, lower each component, compose.

        The ordered patterns split into variable-disjoint components that
        compose with :class:`JoinOp`. Every filter is placed once: in the
        first component that covers its variables, else as a
        :class:`FilterOp` above the first join that does, else on top. A
        component becomes one ``VectorizedBGP`` (:meth:`_lower_batches`).
        ``needed`` is the projection prune it lowers for: when spanning
        filters read other variables, a projection to ``needed`` tops it.
        """
        if not node.patterns:
            op: PhysicalOperator = Singleton(
                self.table, self.stats, 1.0 if self.estimator else None
            )
            return self._absorb(op, list(node.filters))

        ordered = self._priced(node.patterns)
        components = self._segment(ordered) if self.optimize else [ordered]
        component_variables = [
            set().union(*(pattern.variables() for pattern, _ in component))
            for component in components
        ]
        placed: list[list[Expression]] = [[] for _ in components]
        spanning: list[Expression] = []
        for expression in node.filters:
            variables = expression_variables(expression)
            next((filters for filters, here in zip(placed, component_variables)
                  if variables <= here), spanning).append(expression)
        spanning_vars = set().union(*map(expression_variables, spanning))

        combined: PhysicalOperator | None = None
        covered: set[Variable] = set()
        for component, component_vars, local in zip(components, component_variables, placed):
            op = self._lower_batches(component, local)
            if combined is None:
                combined = op
            else:
                combined = JoinOp(combined, op, False, (), self._join_estimate(
                    combined.estimated_rows, op.estimated_rows, False
                ))
            covered |= component_vars
            combined = self._absorb(combined, spanning, covered)

        assert combined is not None
        combined = self._absorb(combined, spanning)  # covered by no component
        if needed is not None and (spanning_vars - needed) & covered:
            combined = self._pruned(combined, needed)
        return combined

    def _lower_batches(self, component: list[_Priced], filters: list[Expression],
                       input: PhysicalOperator | None = None) -> PhysicalOperator:
        """One component as a :class:`~repro.sparql.vectorized.VectorizedBGP`
        (probing ``input``'s batches when given); the filters become masks
        over its id batches."""
        from .vectorized import VectorizedBGP

        pattern_estimates = [estimate for _, estimate in component]
        estimate = pattern_estimates[0]
        for pattern_estimate in pattern_estimates[1:]:
            estimate = self._join_estimate(estimate, pattern_estimate, True)
        for _ in filters:
            estimate = self._filter_estimate(estimate)
        patterns = tuple(pattern for pattern, _ in component)
        return VectorizedBGP(self.table, self.source, patterns, tuple(filters),
                             self.stats, estimate, pattern_estimates, input)

    @staticmethod
    def _segment(ordered: list[_Priced]) -> list[list[_Priced]]:
        """Split greedily ordered patterns into variable-disjoint components.

        The greedy ordering always prefers connected patterns, so a pattern
        sharing no variable with everything chosen so far starts a component
        that stays disjoint from all earlier ones.
        """
        components: list[list[_Priced]] = []
        seen_vars: set[Variable] = set()
        for priced in ordered:
            pattern_vars = priced[0].variables()
            if not components or (pattern_vars and not (pattern_vars & seen_vars)):
                components.append([priced])
            else:
                components[-1].append(priced)
            seen_vars |= pattern_vars
        return components


def _connected_first(ordered: list[_Priced], bound: set[Variable]) -> list[_Priced]:
    """``ordered`` reordered so each pattern shares a variable with what is
    bound before it whenever one can: the first is probed with the input's
    own columns, never a cross product while a connected pattern waits."""
    rest, chosen = list(ordered), []
    while rest:
        pick = next((p for p in rest if p[0].variables() & bound), rest[0])
        rest.remove(pick)
        chosen.append(pick)
        bound |= pick[0].variables()
    return chosen


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

    ``leading`` marks scans that executed exactly once, unconditioned —
    the first scan of a once-executed BGP with no input — and handed on
    every row they matched: only those are comparable to the planner's
    unconditioned estimate. A probe stage runs conditioned on the rows
    before it; a first stage a ``LIMIT`` stopped or the shed tier sampled
    counts the rows somebody asked for. In an OPTIONAL only the left side
    leads.
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
            # Children are the input a continued BGP probes, then the
            # scans in join order; only the first child runs unconditioned,
            # and only when the BGP itself did — over all of its first
            # stage, not a sample of it.
            first = leading and node.executions <= 1 and not _sampled(node)
            for index, child in enumerate(children):
                visit(child, first and index == 0)
        elif name == "LeftJoin":
            visit(children[0], leading)
            visit(children[1], False)
        else:
            # Unary wrappers (Filter/Project/Slice/...), Join (both sides
            # run once, on their own), Union branches.
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
    aggregate or top-k selection and
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
