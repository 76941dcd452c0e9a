"""Logical query plans and rewrite rules.

First stage of the query pipeline (survey §2/§4: efficiency through real
query optimization, not tree-walking interpretation)::

    parse → **logical plan** → rewrites → cost-based ordering → physical operators

The logical plan is the engine's one intermediate form: a small relational
tree that :func:`build_pattern_plan` translates straight from the parsed
group graph pattern (SPARQL 1.1 group semantics), plus the solution
modifiers of the query form. Rewrites applied here are *cost-independent*
(they never consult the store):

* **constant folding** — variable-free subexpressions of filters, BINDs and
  projections collapse to literals at plan time;
* **filter pushdown** — conjunctive filter clauses sink to the deepest
  subtree whose *certainly bound* variables cover them, down into the BGP
  itself (where the physical layer applies them mid-join);
* **LIMIT/OFFSET pushdown** — a ``Slice`` slides below the 1:1 ``Project``
  when no ORDER BY / DISTINCT blocks it, so streaming execution stops
  pulling solutions as soon as the window is full;
* **projection pruning** — a ``Prune`` trims solution width to the
  variables the upper pipeline can observe.

Cost-*dependent* ordering (greedy join ordering from store statistics)
happens in :func:`order_bgp_patterns` using a
:class:`~repro.sparql.optimizer.CardinalityEstimator`.

Every optimized plan has a stable :func:`plan_digest`, which the cached
engine uses as its key — syntactically different but plan-equivalent
queries share one cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

from ..rdf.terms import Literal, Variable
from .expr import (
    ExprError,
    contains_aggregate,
    ebv,
    evaluate,
    expression_variables,
    to_term,
)
from .nodes import (
    AskQuery,
    BinaryExpr,
    BindPattern,
    ConstructQuery,
    DescribeQuery,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupGraphPattern,
    OptionalPattern,
    OrderCondition,
    Projection,
    Query,
    SelectQuery,
    TermExpr,
    TriplePatternNode,
    UnaryExpr,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)

__all__ = [
    "LogicalNode",
    "LogicalBGP",
    "LogicalJoin",
    "LogicalLeftJoin",
    "LogicalUnion",
    "LogicalFilter",
    "LogicalExtend",
    "LogicalValues",
    "LogicalProject",
    "LogicalPrune",
    "LogicalAggregate",
    "LogicalDistinct",
    "LogicalSort",
    "LogicalSlice",
    "build_select_plan",
    "build_pattern_plan",
    "optimize_plan",
    "certain_variables",
    "possible_variables",
    "fold_expression",
    "plan_digest",
    "Planned",
    "plan_query",
    "query_digest",
]


class LogicalNode:
    """Marker base class for logical plan operators."""

    __slots__ = ()


@dataclass(frozen=True)
class LogicalBGP(LogicalNode):
    """A basic graph pattern plus the filter clauses pushed into it."""

    patterns: tuple[TriplePatternNode, ...]
    filters: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class LogicalJoin(LogicalNode):
    left: LogicalNode
    right: LogicalNode


@dataclass(frozen=True)
class LogicalLeftJoin(LogicalNode):
    left: LogicalNode
    right: LogicalNode


@dataclass(frozen=True)
class LogicalUnion(LogicalNode):
    branches: tuple[LogicalNode, ...]


@dataclass(frozen=True)
class LogicalFilter(LogicalNode):
    expression: Expression
    input: LogicalNode


@dataclass(frozen=True)
class LogicalExtend(LogicalNode):
    input: LogicalNode
    variable: Variable
    expression: Expression


@dataclass(frozen=True)
class LogicalValues(LogicalNode):
    pattern: ValuesPattern


@dataclass(frozen=True)
class LogicalProject(LogicalNode):
    input: LogicalNode
    projections: tuple[Projection, ...]
    select_all: bool


@dataclass(frozen=True)
class LogicalPrune(LogicalNode):
    """Projection pruning: trim rows to the variables still observable."""

    input: LogicalNode
    variables: frozenset[Variable]


@dataclass(frozen=True)
class LogicalAggregate(LogicalNode):
    input: LogicalNode
    projections: tuple[Projection, ...]
    group_by: tuple[Expression, ...]
    having: Expression | None


@dataclass(frozen=True)
class LogicalDistinct(LogicalNode):
    input: LogicalNode


@dataclass(frozen=True)
class LogicalSort(LogicalNode):
    input: LogicalNode
    conditions: tuple[OrderCondition, ...]


@dataclass(frozen=True)
class LogicalSlice(LogicalNode):
    input: LogicalNode
    limit: int | None
    offset: int


# --------------------------------------------------------------------------- #
# Translation: parsed group patterns / query forms → logical plan
# --------------------------------------------------------------------------- #

_EMPTY_BGP = LogicalBGP(())


def build_pattern_plan(group: GroupGraphPattern) -> LogicalNode:
    """Logical plan for one ``{ ... }`` group (the WHERE of every form).

    SPARQL 1.1 group semantics: adjacent triple patterns merge into one
    BGP, OPTIONAL left-joins the group built so far, BIND extends it,
    UNION / VALUES / nested groups join it, and sibling FILTERs scope over
    the whole group wherever they were written.
    """
    current: LogicalNode = _EMPTY_BGP
    pending: list[TriplePatternNode] = []
    filters: list[Expression] = []

    def join(node: LogicalNode) -> None:
        nonlocal current
        current = node if current == _EMPTY_BGP else LogicalJoin(current, node)

    def flush_triples() -> None:
        if pending:
            join(LogicalBGP(tuple(pending)))
            pending.clear()

    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            pending.append(element)
            continue
        if isinstance(element, FilterPattern):
            filters.append(element.expression)
            continue
        flush_triples()
        if isinstance(element, OptionalPattern):
            current = LogicalLeftJoin(current, build_pattern_plan(element.pattern))
        elif isinstance(element, BindPattern):
            current = LogicalExtend(current, element.variable, element.expression)
        elif isinstance(element, UnionPattern):
            join(LogicalUnion(
                tuple(build_pattern_plan(g) for g in element.alternatives)
            ))
        elif isinstance(element, ValuesPattern):
            join(LogicalValues(element))
        elif isinstance(element, GroupGraphPattern):
            join(build_pattern_plan(element))
        else:  # pragma: no cover - parser only emits the kinds above
            raise TypeError(f"unknown group element: {element!r}")

    flush_triples()
    for expression in filters:
        current = LogicalFilter(expression, current)
    return current


def build_select_plan(q: SelectQuery) -> LogicalNode:
    """Full logical pipeline for a SELECT, mirroring evaluation order:

    pattern tree → Aggregate|Project → Sort → Distinct → Slice.
    """
    node: LogicalNode = build_pattern_plan(q.where)
    has_aggregates = bool(q.group_by) or any(
        p.expression is not None and contains_aggregate(p.expression)
        for p in q.projections
    )
    if has_aggregates:
        node = LogicalAggregate(node, q.projections, q.group_by, q.having)
    else:
        node = LogicalProject(node, q.projections, q.select_all)
    if q.order_by:
        node = LogicalSort(node, q.order_by)
    if q.distinct:
        node = LogicalDistinct(node)
    if q.limit is not None or q.offset:
        node = LogicalSlice(node, q.limit, q.offset)
    return node


# --------------------------------------------------------------------------- #
# Variable analysis
# --------------------------------------------------------------------------- #


def certain_variables(node: LogicalNode) -> frozenset[Variable]:
    """Variables bound in *every* solution the subtree can produce."""
    if isinstance(node, LogicalBGP):
        result: set[Variable] = set()
        for pattern in node.patterns:
            result |= pattern.variables()
        return frozenset(result)
    if isinstance(node, LogicalJoin):
        return certain_variables(node.left) | certain_variables(node.right)
    if isinstance(node, LogicalLeftJoin):
        return certain_variables(node.left)
    if isinstance(node, LogicalUnion):
        certain = [certain_variables(b) for b in node.branches]
        return frozenset.intersection(*certain) if certain else frozenset()
    if isinstance(node, LogicalFilter):
        return certain_variables(node.input)
    if isinstance(node, LogicalExtend):
        # BIND can fail to bind (expression error) — its variable is not certain.
        return certain_variables(node.input)
    if isinstance(node, LogicalValues):
        certain_positions = [
            v
            for index, v in enumerate(node.pattern.variables)
            if all(row[index] is not None for row in node.pattern.rows)
        ]
        return frozenset(certain_positions) if node.pattern.rows else frozenset()
    if isinstance(node, LogicalPrune):
        return certain_variables(node.input) & node.variables
    return frozenset()


def possible_variables(node: LogicalNode) -> frozenset[Variable]:
    """Variables that *may* appear in a solution of the subtree."""
    if isinstance(node, LogicalBGP):
        result: set[Variable] = set()
        for pattern in node.patterns:
            result |= pattern.variables()
        return frozenset(result)
    if isinstance(node, (LogicalJoin, LogicalLeftJoin)):
        return possible_variables(node.left) | possible_variables(node.right)
    if isinstance(node, LogicalUnion):
        result = frozenset()
        for branch in node.branches:
            result |= possible_variables(branch)
        return result
    if isinstance(node, LogicalFilter):
        return possible_variables(node.input)
    if isinstance(node, LogicalExtend):
        return possible_variables(node.input) | {node.variable}
    if isinstance(node, LogicalValues):
        return frozenset(node.pattern.variables)
    if isinstance(node, LogicalPrune):
        return possible_variables(node.input) & node.variables
    return frozenset()


# --------------------------------------------------------------------------- #
# Rewrite: constant folding
# --------------------------------------------------------------------------- #


def fold_expression(expression: Expression) -> Expression:
    """Collapse variable-free subexpressions into constant terms.

    Folding is semantics-preserving: subtrees whose evaluation errors (e.g.
    division by zero) are left intact so the runtime error behaviour —
    dropping the solution from a FILTER, skipping a BIND — is unchanged.
    """
    if isinstance(expression, UnaryExpr):
        folded: Expression = UnaryExpr(expression.operator, fold_expression(expression.operand))
    elif isinstance(expression, BinaryExpr):
        left = fold_expression(expression.left)
        right = fold_expression(expression.right)
        # Short-circuit folds that match the evaluator's laziness exactly:
        # a constant-false && never evaluates its right side, a
        # constant-true || never evaluates its right side.
        if isinstance(left, TermExpr):
            try:
                left_truth = ebv(left.term)
                if expression.operator == "&&" and not left_truth:
                    return TermExpr(Literal(False))
                if expression.operator == "||" and left_truth:
                    return TermExpr(Literal(True))
            except ExprError:
                # repro: swallow(a non-boolean constant just means no
                # short-circuit fold; the expr stays unfolded)
                pass
        folded = BinaryExpr(expression.operator, left, right)
    elif isinstance(expression, FunctionCall):
        folded = FunctionCall(expression.name, tuple(fold_expression(a) for a in expression.args))
    else:
        return expression

    if expression_variables(folded) or contains_aggregate(folded):
        return folded
    try:
        return TermExpr(to_term(evaluate(folded, {})))
    except ExprError:
        return folded  # runtime-error semantics preserved


def _is_constant_true(expression: Expression) -> bool:
    """A folded clause that is always effectively true filters nothing."""
    if not isinstance(expression, TermExpr):
        return False
    try:
        return ebv(expression.term)
    except ExprError:
        return False


def _fold_node(node: LogicalNode) -> LogicalNode:
    if isinstance(node, LogicalFilter):
        folded = fold_expression(node.expression)
        if _is_constant_true(folded):
            return _fold_node(node.input)
        return LogicalFilter(folded, _fold_node(node.input))
    if isinstance(node, LogicalExtend):
        return LogicalExtend(_fold_node(node.input), node.variable, fold_expression(node.expression))
    if isinstance(node, LogicalBGP):
        return LogicalBGP(node.patterns, tuple(fold_expression(f) for f in node.filters))
    if isinstance(node, LogicalJoin):
        return LogicalJoin(_fold_node(node.left), _fold_node(node.right))
    if isinstance(node, LogicalLeftJoin):
        return LogicalLeftJoin(_fold_node(node.left), _fold_node(node.right))
    if isinstance(node, LogicalUnion):
        return LogicalUnion(tuple(_fold_node(b) for b in node.branches))
    if isinstance(node, LogicalProject):
        return LogicalProject(
            _fold_node(node.input),
            tuple(
                Projection(p.variable, fold_expression(p.expression) if p.expression else None)
                for p in node.projections
            ),
            node.select_all,
        )
    if isinstance(node, LogicalAggregate):
        return LogicalAggregate(
            _fold_node(node.input), node.projections, node.group_by, node.having
        )
    if isinstance(node, LogicalSort):
        return LogicalSort(_fold_node(node.input), node.conditions)
    if isinstance(node, LogicalDistinct):
        return LogicalDistinct(_fold_node(node.input))
    if isinstance(node, LogicalSlice):
        return LogicalSlice(_fold_node(node.input), node.limit, node.offset)
    if isinstance(node, LogicalPrune):
        return LogicalPrune(_fold_node(node.input), node.variables)
    return node


# --------------------------------------------------------------------------- #
# Rewrite: filter pushdown
# --------------------------------------------------------------------------- #


def _split_conjunction(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryExpr) and expression.operator == "&&":
        return _split_conjunction(expression.left) + _split_conjunction(expression.right)
    return [expression]


def _push_clause(node: LogicalNode, clause: Expression) -> LogicalNode:
    """Sink one filter clause as deep as certain-variable coverage allows."""
    needed = expression_variables(clause)
    if isinstance(node, LogicalBGP) and needed <= certain_variables(node):
        return LogicalBGP(node.patterns, node.filters + (clause,))
    if isinstance(node, LogicalJoin):
        if needed <= certain_variables(node.left):
            return LogicalJoin(_push_clause(node.left, clause), node.right)
        if needed <= certain_variables(node.right):
            return LogicalJoin(node.left, _push_clause(node.right, clause))
    if isinstance(node, LogicalLeftJoin):
        # Only the left side is safe: the right side of an OPTIONAL changes
        # which solutions get extended, not which survive.
        if needed <= certain_variables(node.left):
            return LogicalLeftJoin(_push_clause(node.left, clause), node.right)
    if isinstance(node, LogicalUnion) and all(
        needed <= certain_variables(b) for b in node.branches
    ):
        return LogicalUnion(tuple(_push_clause(b, clause) for b in node.branches))
    if isinstance(node, LogicalFilter):
        return LogicalFilter(node.expression, _push_clause(node.input, clause))
    if isinstance(node, LogicalExtend):
        if node.variable not in needed and needed <= certain_variables(node.input):
            return LogicalExtend(
                _push_clause(node.input, clause), node.variable, node.expression
            )
    return LogicalFilter(clause, node)


def _push_filters(node: LogicalNode) -> LogicalNode:
    if isinstance(node, LogicalFilter):
        child = _push_filters(node.input)
        for clause in _split_conjunction(node.expression):
            if _is_constant_true(clause):
                continue  # split may expose constant-true conjuncts
            child = _push_clause(child, clause)
        return child
    if isinstance(node, LogicalJoin):
        return LogicalJoin(_push_filters(node.left), _push_filters(node.right))
    if isinstance(node, LogicalLeftJoin):
        return LogicalLeftJoin(_push_filters(node.left), _push_filters(node.right))
    if isinstance(node, LogicalUnion):
        return LogicalUnion(tuple(_push_filters(b) for b in node.branches))
    if isinstance(node, LogicalExtend):
        return LogicalExtend(_push_filters(node.input), node.variable, node.expression)
    if isinstance(node, LogicalProject):
        return LogicalProject(_push_filters(node.input), node.projections, node.select_all)
    if isinstance(node, LogicalAggregate):
        return LogicalAggregate(
            _push_filters(node.input), node.projections, node.group_by, node.having
        )
    if isinstance(node, LogicalSort):
        return LogicalSort(_push_filters(node.input), node.conditions)
    if isinstance(node, LogicalDistinct):
        return LogicalDistinct(_push_filters(node.input))
    if isinstance(node, LogicalSlice):
        return LogicalSlice(_push_filters(node.input), node.limit, node.offset)
    if isinstance(node, LogicalPrune):
        return LogicalPrune(_push_filters(node.input), node.variables)
    return node


# --------------------------------------------------------------------------- #
# Rewrite: LIMIT/OFFSET pushdown + projection pruning
# --------------------------------------------------------------------------- #


def _push_slice(node: LogicalNode) -> LogicalNode:
    """``Slice(Project(X)) → Project(Slice(X))`` — Project is 1:1, so the
    window can be applied before projection. Sort and Distinct block the
    move (they need the full input)."""
    if isinstance(node, LogicalSlice) and isinstance(node.input, LogicalProject):
        project = node.input
        return LogicalProject(
            LogicalSlice(project.input, node.limit, node.offset),
            project.projections,
            project.select_all,
        )
    return node


def _projection_needs(projections: tuple[Projection, ...]) -> set[Variable]:
    needed: set[Variable] = set()
    for projection in projections:
        if projection.expression is None:
            needed.add(projection.variable)
        else:
            needed |= expression_variables(projection.expression)
    return needed


def _prune_projection(node: LogicalNode) -> LogicalNode:
    """Insert a width-trimming Prune below Project/Aggregate when the
    pattern tree binds variables the upper pipeline can never observe."""

    def wrap(input_node: LogicalNode, needed: set[Variable]) -> LogicalNode:
        if possible_variables(input_node) - needed:
            return LogicalPrune(input_node, frozenset(needed))
        return input_node

    if isinstance(node, LogicalProject) and not node.select_all:
        return LogicalProject(
            wrap(node.input, _projection_needs(node.projections)),
            node.projections,
            node.select_all,
        )
    if isinstance(node, LogicalAggregate):
        needed = _projection_needs(node.projections)
        for expr in node.group_by:
            needed |= expression_variables(expr)
        if node.having is not None:
            needed |= expression_variables(node.having)
        return LogicalAggregate(
            wrap(node.input, needed), node.projections, node.group_by, node.having
        )
    if isinstance(node, (LogicalSort, LogicalDistinct, LogicalSlice)):
        rebuilt = _prune_projection(node.input)
        if isinstance(node, LogicalSort):
            return LogicalSort(rebuilt, node.conditions)
        if isinstance(node, LogicalDistinct):
            return LogicalDistinct(rebuilt)
        return LogicalSlice(rebuilt, node.limit, node.offset)
    return node


def optimize_plan(node: LogicalNode) -> LogicalNode:
    """Apply the cost-independent rewrites in order."""
    node = _fold_node(node)
    node = _push_filters(node)
    node = _prune_projection(node)
    node = _push_slice(node)
    return node


# --------------------------------------------------------------------------- #
# Plan digests (result-cache keys)
# --------------------------------------------------------------------------- #


def _canonical_expression(expression: Expression) -> str:
    if isinstance(expression, VariableExpr):
        return f"?{expression.variable}"
    if isinstance(expression, TermExpr):
        return expression.term.n3()
    if isinstance(expression, UnaryExpr):
        return f"({expression.operator} {_canonical_expression(expression.operand)})"
    if isinstance(expression, BinaryExpr):
        return (
            f"({_canonical_expression(expression.left)} {expression.operator} "
            f"{_canonical_expression(expression.right)})"
        )
    if isinstance(expression, FunctionCall):
        args = " ".join(_canonical_expression(a) for a in expression.args)
        return f"{expression.name}({args})"
    from .nodes import AggregateExpr

    if isinstance(expression, AggregateExpr):
        arg = _canonical_expression(expression.argument) if expression.argument else "*"
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{arg};{expression.separator!r})"
    return repr(expression)


def _canonical_pattern(pattern: TriplePatternNode) -> str:
    return " ".join(
        term.n3() if hasattr(term, "n3") else repr(term)
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def _canonical(node: LogicalNode) -> str:
    if isinstance(node, LogicalBGP):
        patterns = "; ".join(_canonical_pattern(p) for p in node.patterns)
        filters = " & ".join(_canonical_expression(f) for f in node.filters)
        return f"BGP[{patterns}|{filters}]"
    if isinstance(node, LogicalJoin):
        return f"Join[{_canonical(node.left)},{_canonical(node.right)}]"
    if isinstance(node, LogicalLeftJoin):
        return f"LeftJoin[{_canonical(node.left)},{_canonical(node.right)}]"
    if isinstance(node, LogicalUnion):
        return f"Union[{','.join(_canonical(b) for b in node.branches)}]"
    if isinstance(node, LogicalFilter):
        return f"Filter[{_canonical_expression(node.expression)}]({_canonical(node.input)})"
    if isinstance(node, LogicalExtend):
        return (
            f"Extend[?{node.variable}={_canonical_expression(node.expression)}]"
            f"({_canonical(node.input)})"
        )
    if isinstance(node, LogicalValues):
        rows = ";".join(
            ",".join(term.n3() if term is not None else "UNDEF" for term in row)
            for row in node.pattern.rows
        )
        variables = ",".join(f"?{v}" for v in node.pattern.variables)
        return f"Values[{variables}|{rows}]"
    if isinstance(node, LogicalProject):
        if node.select_all:
            items = "*"
        else:
            items = ",".join(
                f"?{p.variable}"
                if p.expression is None
                else f"({_canonical_expression(p.expression)} AS ?{p.variable})"
                for p in node.projections
            )
        return f"Project[{items}]({_canonical(node.input)})"
    if isinstance(node, LogicalPrune):
        variables = ",".join(sorted(f"?{v}" for v in node.variables))
        return f"Prune[{variables}]({_canonical(node.input)})"
    if isinstance(node, LogicalAggregate):
        items = ",".join(
            f"?{p.variable}"
            if p.expression is None
            else f"({_canonical_expression(p.expression)} AS ?{p.variable})"
            for p in node.projections
        )
        group = ",".join(_canonical_expression(e) for e in node.group_by)
        having = _canonical_expression(node.having) if node.having is not None else ""
        return f"Aggregate[{items}|{group}|{having}]({_canonical(node.input)})"
    if isinstance(node, LogicalDistinct):
        return f"Distinct({_canonical(node.input)})"
    if isinstance(node, LogicalSort):
        keys = ",".join(
            ("DESC " if c.descending else "ASC ") + _canonical_expression(c.expression)
            for c in node.conditions
        )
        return f"Sort[{keys}]({_canonical(node.input)})"
    if isinstance(node, LogicalSlice):
        return f"Slice[{node.limit},{node.offset}]({_canonical(node.input)})"
    return repr(node)


def plan_digest(node: LogicalNode, form: str = "SELECT", extra: str = "") -> str:
    """Stable hex digest of an (optimized) logical plan."""
    payload = f"{form}\x1f{_canonical(node)}\x1f{extra}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Planned(NamedTuple):
    """A parsed query, its logical plan (optimized unless told not to) and
    that plan's digest: what a cache miss plans once, is keyed by and runs.
    ``logical`` is None for a DESCRIBE without a WHERE clause."""

    query: Query
    logical: LogicalNode | None
    form: str  # SELECT, ASK, CONSTRUCT or DESCRIBE
    digest: str


def plan_query(parsed: Query, optimize: bool = True) -> Planned:
    """The logical plan of any query form."""
    if isinstance(parsed, SelectQuery):
        node, form, extra = build_select_plan(parsed), "SELECT", ""
    elif isinstance(parsed, AskQuery):
        node, form, extra = build_pattern_plan(parsed.where), "ASK", ""
    elif isinstance(parsed, ConstructQuery):
        node = build_pattern_plan(parsed.where)
        if parsed.limit is not None or parsed.offset:
            node = LogicalSlice(node, parsed.limit, parsed.offset)
        form = "CONSTRUCT"
        extra = (
            "; ".join(_canonical_pattern(t) for t in parsed.template)
            + f"|{parsed.limit}|{parsed.offset}"
        )
    elif isinstance(parsed, DescribeQuery):
        node = None if parsed.where is None else build_pattern_plan(parsed.where)
        form = "DESCRIBE"
        extra = ",".join(
            r.n3() if hasattr(r, "n3") else repr(r) for r in parsed.resources
        )
    else:
        raise TypeError(f"unsupported query type: {type(parsed).__name__}")
    if optimize and node is not None:
        node = optimize_plan(node)
    return Planned(parsed, node, form,
                   plan_digest(node or _EMPTY_BGP, form, extra))


def query_digest(parsed: Query, optimize: bool = True) -> str:
    """Digest for any query form, keyed on its optimized logical plan."""
    return plan_query(parsed, optimize).digest
