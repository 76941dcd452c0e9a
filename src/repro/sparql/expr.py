"""SPARQL expression evaluation (shared by planner and physical operators).

This module holds the value-level semantics of the SPARQL subset: effective
boolean values, numeric coercion, the operator tables, the built-in function
library, and aggregate evaluation. It is deliberately free of any plan or
store dependency so that the logical planner (:mod:`repro.sparql.plan`) can
constant-fold expressions and the physical operators
(:mod:`repro.sparql.physical`) can evaluate them without importing the
engine.
"""

from __future__ import annotations

import math
import re

from ..rdf.terms import BNode, IRI, Literal, Term, Triple, Variable
from .nodes import (
    AggregateExpr,
    BinaryExpr,
    Expression,
    FunctionCall,
    TermExpr,
    TriplePatternNode,
    UnaryExpr,
    VariableExpr,
)

__all__ = [
    "Binding",
    "ExprError",
    "ReversedKey",
    "apply_binary",
    "apply_function",
    "apply_unary",
    "contains_aggregate",
    "ebv",
    "eval_aggregate",
    "eval_group_expr",
    "evaluate",
    "expression_variables",
    "group_key",
    "instantiate",
    "numeric",
    "resolve",
    "string_value",
    "to_term",
    "try_evaluate",
    "values_equal",
]

Binding = dict[Variable, Term]


class ExprError(Exception):
    """SPARQL expression error (type error, unbound variable, ...)."""


class ReversedKey:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: object) -> None:
        self.key = key

    def __lt__(self, other: "ReversedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReversedKey) and self.key == other.key


# --------------------------------------------------------------------------- #
# Scalar expression evaluation
# --------------------------------------------------------------------------- #


def evaluate(expression: Expression, binding: Binding):
    """Evaluate ``expression`` under ``binding``; raises :class:`ExprError`."""
    if isinstance(expression, VariableExpr):
        value = binding.get(expression.variable)
        if value is None:
            raise ExprError(f"unbound variable ?{expression.variable}")
        return value
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, UnaryExpr):
        if expression.operator == "!":
            # '!' needs EBV, not a raw value
            return not ebv(evaluate(expression.operand, binding))
        return apply_unary(expression.operator, evaluate(expression.operand, binding))
    if isinstance(expression, BinaryExpr):
        return apply_binary(
            expression.operator,
            lambda: evaluate(expression.left, binding),
            lambda: evaluate(expression.right, binding),
        )
    if isinstance(expression, FunctionCall):
        if expression.name == "BOUND":
            arg = expression.args[0]
            if not isinstance(arg, VariableExpr):
                raise ExprError("BOUND needs a variable")
            return arg.variable in binding
        if expression.name == "COALESCE":
            for arg in expression.args:
                try:
                    return evaluate(arg, binding)
                except ExprError:
                    # repro: swallow(COALESCE tries the next arg on
                    # error, per the SPARQL spec)
                    continue
            raise ExprError("COALESCE: all arguments errored")
        if expression.name == "IF":
            condition = ebv(evaluate(expression.args[0], binding))
            chosen = expression.args[1] if condition else expression.args[2]
            return evaluate(chosen, binding)
        args = [evaluate(arg, binding) for arg in expression.args]
        return apply_function(expression.name, args)
    if isinstance(expression, AggregateExpr):
        raise ExprError("aggregate outside GROUP BY context")
    raise ExprError(f"unknown expression {expression!r}")


def try_evaluate(expression: Expression | None, binding: Binding):
    """Like :func:`evaluate` but returns ``None`` on error or ``None`` input."""
    if expression is None:
        return None
    try:
        return evaluate(expression, binding)
    except ExprError:
        return None


# --------------------------------------------------------------------------- #
# Grouped (aggregate) evaluation
# --------------------------------------------------------------------------- #


def eval_group_expr(expression: Expression, members: list[Binding], representative: Binding):
    """Evaluate an expression in GROUP BY context (aggregates see the group)."""
    if isinstance(expression, AggregateExpr):
        return eval_aggregate(expression, members)
    if isinstance(expression, BinaryExpr):
        return apply_binary(
            expression.operator,
            lambda: eval_group_expr(expression.left, members, representative),
            lambda: eval_group_expr(expression.right, members, representative),
        )
    if isinstance(expression, UnaryExpr):
        return apply_unary(
            expression.operator,
            eval_group_expr(expression.operand, members, representative),
        )
    if isinstance(expression, FunctionCall):
        args = [eval_group_expr(arg, members, representative) for arg in expression.args]
        return apply_function(expression.name, args)
    return evaluate(expression, representative)


def eval_aggregate(agg: AggregateExpr, members: list[Binding]):
    if agg.name == "COUNT" and agg.argument is None:
        return len(members)
    values = []
    for member in members:
        value = try_evaluate(agg.argument, member)
        if value is not None:
            values.append(value)
    if agg.distinct:
        seen = set()
        unique = []
        for value in values:
            key = group_key(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    if agg.name == "COUNT":
        return len(values)
    if agg.name == "SAMPLE":
        if not values:
            raise ExprError("SAMPLE over empty group")
        return values[0]
    if agg.name == "GROUP_CONCAT":
        return agg.separator.join(string_value(v) for v in values)
    numbers = [numeric(v) for v in values]
    if not numbers:
        if agg.name == "SUM":
            return 0
        raise ExprError(f"{agg.name} over empty group")
    if agg.name == "SUM":
        return sum(numbers)
    if agg.name == "AVG":
        return sum(numbers) / len(numbers)
    if agg.name == "MIN":
        return min(numbers)
    if agg.name == "MAX":
        return max(numbers)
    raise ExprError(f"unknown aggregate {agg.name}")


# --------------------------------------------------------------------------- #
# Pattern/binding helpers
# --------------------------------------------------------------------------- #


def resolve(term, binding: Binding):
    if isinstance(term, Variable):
        return binding.get(term, term)
    return term


def instantiate(template: TriplePatternNode, binding: Binding) -> Triple | None:
    """Ground a CONSTRUCT template triple, or ``None`` if it stays open."""
    s = resolve(template.subject, binding)
    p = resolve(template.predicate, binding)
    o = resolve(template.object, binding)
    if isinstance(s, Variable) or isinstance(p, Variable) or isinstance(o, Variable):
        return None
    if not isinstance(s, (IRI, BNode)) or not isinstance(p, IRI):
        return None
    if not isinstance(o, (IRI, BNode, Literal)):
        return None
    return Triple(s, p, o)


# --------------------------------------------------------------------------- #
# Expression structure queries (used by the logical planner)
# --------------------------------------------------------------------------- #


def contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, AggregateExpr):
        return True
    if isinstance(expression, UnaryExpr):
        return contains_aggregate(expression.operand)
    if isinstance(expression, BinaryExpr):
        return contains_aggregate(expression.left) or contains_aggregate(expression.right)
    if isinstance(expression, FunctionCall):
        return any(contains_aggregate(arg) for arg in expression.args)
    return False


def expression_variables(expression: Expression) -> set[Variable]:
    """Every variable mentioned anywhere in ``expression`` (BOUND included)."""
    if isinstance(expression, VariableExpr):
        return {expression.variable}
    if isinstance(expression, UnaryExpr):
        return expression_variables(expression.operand)
    if isinstance(expression, BinaryExpr):
        return expression_variables(expression.left) | expression_variables(expression.right)
    if isinstance(expression, FunctionCall):
        result: set[Variable] = set()
        for arg in expression.args:
            result |= expression_variables(arg)
        return result
    if isinstance(expression, AggregateExpr):
        return expression_variables(expression.argument) if expression.argument else set()
    return set()


# --------------------------------------------------------------------------- #
# Value semantics
# --------------------------------------------------------------------------- #


def ebv(value) -> bool:
    """SPARQL effective boolean value."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not (isinstance(value, float) and math.isnan(value))
    if isinstance(value, str) and not isinstance(value, (IRI, BNode)):
        return len(value) > 0
    if isinstance(value, Literal):
        native = value.value
        if isinstance(native, bool):
            return native
        if isinstance(native, (int, float)):
            return ebv(native)
        return len(value.lexical) > 0
    raise ExprError(f"no effective boolean value for {value!r}")


def numeric(value) -> float | int:
    if isinstance(value, bool):
        raise ExprError("boolean is not numeric")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, Literal):
        native = value.value
        if isinstance(native, (int, float)) and not isinstance(native, bool):
            return native
    raise ExprError(f"not a number: {value!r}")


def string_value(value) -> str:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    return str(value)


def to_term(value) -> Term:
    if isinstance(value, (IRI, BNode, Literal)):
        return value
    if isinstance(value, bool):
        return Literal(value)
    if isinstance(value, int):
        return Literal(value)
    if isinstance(value, float):
        return Literal(value)
    if isinstance(value, str):
        return Literal(value)
    raise ExprError(f"cannot convert {value!r} to an RDF term")


def group_key(value):
    if isinstance(value, Literal):
        return ("lit", value.lexical, value.datatype, value.lang)
    if isinstance(value, (IRI, BNode)):
        return (type(value).__name__, str(value))
    return ("py", value)


def values_equal(a, b) -> bool:
    try:
        return numeric(a) == numeric(b)
    except ExprError:
        # repro: swallow(non-numeric operands fall through to the
        # term-equality rules below)
        pass
    if isinstance(a, Literal) and isinstance(b, Literal):
        return a == b
    if isinstance(a, Literal) or isinstance(b, Literal):
        lit, other = (a, b) if isinstance(a, Literal) else (b, a)
        if isinstance(other, (IRI, BNode)):
            return False
        if isinstance(other, bool):
            return lit.value is other
        if isinstance(other, str):
            return lit.lang is None and lit.lexical == other
        return False
    # IRI and BNode subclass str, so require matching kinds before comparing.
    if isinstance(a, (IRI, BNode)) or isinstance(b, (IRI, BNode)):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def compare(op: str, a, b) -> bool:
    if op == "=":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    try:
        left, right = numeric(a), numeric(b)
    except ExprError:
        left, right = string_value(a), string_value(b)
        if isinstance(a, (IRI, BNode)) != isinstance(b, (IRI, BNode)):
            raise ExprError(f"incomparable values {a!r} and {b!r}") from None
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExprError(f"unknown comparison {op}")


def apply_unary(op: str, value):
    if op == "!":
        return not ebv(value)
    if op == "-":
        return -numeric(value)
    if op == "+":
        return numeric(value)
    raise ExprError(f"unknown unary operator {op}")


def apply_binary(op: str, left_thunk, right_thunk):
    if op == "&&":
        return ebv(left_thunk()) and ebv(right_thunk())
    if op == "||":
        try:
            if ebv(left_thunk()):
                return True
        except ExprError:
            return ebv(right_thunk()) or _raise(ExprError("|| left errored, right false"))
        return ebv(right_thunk())
    left = left_thunk()
    right = right_thunk()
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return compare(op, left, right)
    if op == "IN":
        if not (isinstance(right, tuple)):
            raise ExprError("IN needs a list")
        return any(values_equal(left, item) for item in right)
    a, b = numeric(left), numeric(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ExprError("division by zero")
        return a / b
    raise ExprError(f"unknown operator {op}")


def _raise(exc: Exception):
    raise exc


_DATE_RE = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})")


def apply_function(name: str, args: list):
    if name == "_LIST":
        return tuple(args)
    if name == "STR":
        return string_value(args[0]) if not isinstance(args[0], IRI) else str(args[0])
    if name in ("IRI", "URI"):
        return IRI(string_value(args[0]))
    if name == "LANG":
        if isinstance(args[0], Literal):
            return args[0].lang or ""
        raise ExprError("LANG needs a literal")
    if name == "LANGMATCHES":
        tag = string_value(args[0]).lower()
        pattern = string_value(args[1]).lower()
        if pattern == "*":
            return bool(tag)
        return tag == pattern or tag.startswith(pattern + "-")
    if name == "DATATYPE":
        if isinstance(args[0], Literal):
            return IRI(args[0].datatype)
        raise ExprError("DATATYPE needs a literal")
    if name in ("ISIRI", "ISURI"):
        return isinstance(args[0], IRI)
    if name == "ISBLANK":
        return isinstance(args[0], BNode)
    if name == "ISLITERAL":
        return isinstance(args[0], Literal)
    if name == "ISNUMERIC":
        try:
            numeric(args[0])
            return True
        except ExprError:
            return False
    if name == "REGEX":
        flags = re.IGNORECASE if len(args) > 2 and "i" in string_value(args[2]) else 0
        return re.search(string_value(args[1]), string_value(args[0]), flags) is not None
    if name == "STRSTARTS":
        return string_value(args[0]).startswith(string_value(args[1]))
    if name == "STRENDS":
        return string_value(args[0]).endswith(string_value(args[1]))
    if name == "CONTAINS":
        return string_value(args[1]) in string_value(args[0])
    if name == "STRLEN":
        return len(string_value(args[0]))
    if name == "UCASE":
        return string_value(args[0]).upper()
    if name == "LCASE":
        return string_value(args[0]).lower()
    if name == "CONCAT":
        return "".join(string_value(a) for a in args)
    if name == "SUBSTR":
        text = string_value(args[0])
        start = int(numeric(args[1])) - 1  # SPARQL is 1-based
        if len(args) > 2:
            return text[start : start + int(numeric(args[2]))]
        return text[start:]
    if name == "REPLACE":
        return re.sub(string_value(args[1]), string_value(args[2]), string_value(args[0]))
    if name == "ABS":
        return abs(numeric(args[0]))
    if name == "CEIL":
        return math.ceil(numeric(args[0]))
    if name == "FLOOR":
        return math.floor(numeric(args[0]))
    if name == "ROUND":
        return round(numeric(args[0]))
    if name in ("YEAR", "MONTH", "DAY"):
        lexical = string_value(args[0])
        match = _DATE_RE.match(lexical)
        if match is None:
            if name == "YEAR" and re.match(r"^-?\d{4,}$", lexical):
                return int(lexical)
            raise ExprError(f"{name}: not a date literal: {lexical!r}")
        index = {"YEAR": 1, "MONTH": 2, "DAY": 3}[name]
        return int(match.group(index))
    raise ExprError(f"unknown function {name}")

