"""A deliberately naive SPARQL evaluator: the oracle the engine is checked with.

Nested loops over the parsed query against a plain list of triples, the
way the SPARQL 1.1 algebra is written down: a group is evaluated bottom-up
(triple patterns extend the solutions so far, OPTIONAL is a left join that
takes the optional group's FILTERs as its condition, UNION / VALUES /
nested groups are evaluated alone and joined on compatible bindings, BIND
extends, sibling FILTERs apply to the whole group), then GROUP BY and
aggregates or the projection, ORDER BY, DISTINCT and the LIMIT / OFFSET
window. No index, no ordering of patterns, no ids, no batches — nothing the
engine does to be fast, so an agreement between the two is evidence about
the engine and not about shared code. It imports the parser, the syntax
nodes and the *value* semantics of :mod:`repro.sparql.expr` (what ``<``
means for two literals, what an erroring FILTER does) and nothing from
``plan``, ``optimizer``, ``physical`` or ``vectorized``.

Two things follow the engine rather than the W3C text, because they are
its documented contract: ORDER BY sees the projected row
(``build_select_plan``: Aggregate | Project → Sort → Distinct → Slice), and
a BIND whose variable is already bound drops the solution. Bottom-up and
the engine's correlated evaluation agree on well-designed patterns, which
is what the generators emit: a FILTER, BIND or nested OPTIONAL inside an
OPTIONAL / UNION / nested group reads only variables bound in that group.

Cost is O(solutions × triples) per triple pattern: for graphs of hundreds
of triples, not thousands.
"""

from repro.rdf.terms import IRI, BNode, Triple, Variable, term_sort_key
from repro.sparql.expr import (
    ExprError,
    ReversedKey,
    contains_aggregate,
    ebv,
    eval_group_expr,
    evaluate,
    group_key,
    instantiate,
    to_term,
    try_evaluate,
)
from repro.sparql.nodes import (
    AskQuery,
    BindPattern,
    ConstructQuery,
    DescribeQuery,
    FilterPattern,
    GroupGraphPattern,
    OptionalPattern,
    SelectQuery,
    TriplePatternNode,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.parser import parse_query

__all__ = ["reference_answer"]


def reference_answer(query, triples):
    """``query`` (text or parsed) over ``triples`` (any iterable; a graph is
    a set, so duplicates count once): a list of solution dicts for SELECT,
    a bool for ASK, a set of triples for CONSTRUCT and DESCRIBE."""
    parsed = parse_query(query) if isinstance(query, str) else query
    triples = list(dict.fromkeys(Triple(*triple) for triple in triples))
    if isinstance(parsed, SelectQuery):
        return _select(parsed, _group(parsed.where, triples))
    if isinstance(parsed, AskQuery):
        return bool(_group(parsed.where, triples))
    if isinstance(parsed, ConstructQuery):
        solutions = _group(parsed.where, triples)
        stop = None if parsed.limit is None else parsed.offset + parsed.limit
        built = (
            instantiate(template, row)
            for row in solutions[parsed.offset : stop]
            for template in parsed.template
        )
        return {triple for triple in built if triple is not None}
    if isinstance(parsed, DescribeQuery):
        solutions = [] if parsed.where is None else _group(parsed.where, triples)
        resources = set()
        for resource in parsed.resources:
            if isinstance(resource, Variable):
                resources |= {row[resource] for row in solutions if resource in row}
            else:
                resources.add(resource)
        return {
            (s, p, o)
            for s, p, o in triples
            if o in resources or (s in resources and isinstance(s, (IRI, BNode)))
        }
    raise TypeError(f"not a query: {parsed!r}")


# -- graph patterns -----------------------------------------------------------


def _passes(expression, row) -> bool:
    try:
        return ebv(evaluate(expression, row))
    except ExprError:
        return False  # an error excludes the solution


def _match(pattern: TriplePatternNode, triple, row):
    """``row`` extended so that ``pattern`` becomes ``triple``, or None."""
    extended = dict(row)
    for want, have in zip((pattern.subject, pattern.predicate, pattern.object), triple):
        if isinstance(want, Variable):
            if extended.setdefault(want, have) != have:
                return None
        elif want != have:
            return None
    return extended


def _join(left, right, condition=()):
    """Compatible pairs merged; ``condition`` filters the merged rows."""
    return [
        {**a, **b}
        for a in left
        for b in right
        if all(a.get(variable, term) == term for variable, term in b.items())
        and all(_passes(expression, {**a, **b}) for expression in condition)
    ]


def _group(group: GroupGraphPattern, triples, skip_filters=False):
    solutions = [{}]
    filters = []
    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            solutions = [
                extended
                for row in solutions
                for triple in triples
                if (extended := _match(element, triple, row)) is not None
            ]
        elif isinstance(element, FilterPattern):
            filters.append(element.expression)
        elif isinstance(element, OptionalPattern):
            # LeftJoin(left, right, F): the optional group's own FILTERs are
            # the join condition, evaluated on the merged row.
            condition = [
                e.expression for e in element.pattern.elements
                if isinstance(e, FilterPattern)
            ]
            right = _group(element.pattern, triples, skip_filters=True)
            solutions = [
                joined
                for row in solutions
                for joined in _join([row], right, condition) or [row]
            ]
        elif isinstance(element, UnionPattern):
            branches = [
                row for alternative in element.alternatives
                for row in _group(alternative, triples)
            ]
            solutions = _join(solutions, branches)
        elif isinstance(element, GroupGraphPattern):
            solutions = _join(solutions, _group(element, triples))
        elif isinstance(element, ValuesPattern):
            rows = [
                {v: t for v, t in zip(element.variables, row) if t is not None}
                for row in element.rows
            ]
            solutions = _join(solutions, rows)
        elif isinstance(element, BindPattern):
            solutions = [
                extended for row in solutions
                if (extended := _bind(element, row)) is not None
            ]
        else:
            raise TypeError(f"unknown group element: {element!r}")
    if not skip_filters:
        for expression in filters:
            solutions = [row for row in solutions if _passes(expression, row)]
    return solutions


def _bind(element: BindPattern, row):
    try:
        value = to_term(evaluate(element.expression, row))
    except ExprError:
        return row  # an erroring BIND leaves its variable unbound
    if element.variable in row:
        return None
    return {**row, element.variable: value}


# -- solution modifiers -------------------------------------------------------


def _projected(projections, row, evaluate_expression):
    out = {}
    for projection in projections:
        if projection.expression is None:
            value = row.get(projection.variable)
        else:
            try:
                value = to_term(evaluate_expression(projection.expression))
            except ExprError:
                value = None  # an erroring expression leaves it unbound
        if value is not None:
            out[projection.variable] = value
    return out


def _select(query: SelectQuery, solutions):
    if query.group_by or any(
        p.expression is not None and contains_aggregate(p.expression)
        for p in query.projections
    ):
        groups = {}
        for row in solutions:
            key = tuple(group_key(try_evaluate(e, row)) for e in query.group_by)
            groups.setdefault(key, []).append(row)
        if not query.group_by:
            groups = {(): solutions}  # the implicit group exists over nothing
        rows = []
        for members in groups.values():
            first = members[0] if members else {}
            in_group = lambda e: eval_group_expr(e, members, first)  # noqa: E731
            if query.having is not None:
                try:
                    if not ebv(in_group(query.having)):
                        continue
                except ExprError:
                    continue
            rows.append(_projected(query.projections, first, in_group))
    elif query.select_all:
        rows = [dict(row) for row in solutions]
    else:
        rows = [
            _projected(query.projections, row, lambda e, row=row: evaluate(e, row))
            for row in solutions
        ]

    def order(row):
        keys = []
        for condition in query.order_by:
            try:
                key = term_sort_key(to_term(evaluate(condition.expression, row)))
            except ExprError:
                key = (0,)  # unbound sorts lowest
            keys.append(ReversedKey(key) if condition.descending else key)
        return keys

    if query.order_by:
        rows.sort(key=order)
    if query.distinct:
        seen = set()
        rows = [
            row for row in rows
            if (key := frozenset((v, group_key(t)) for v, t in row.items())) not in seen
            and not seen.add(key)
        ]
    stop = None if query.limit is None else query.offset + query.limit
    return rows[query.offset : stop]
