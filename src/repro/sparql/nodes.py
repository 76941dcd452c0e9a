"""Abstract syntax tree for the SPARQL subset.

The survey's Section 2 makes "query or API endpoints for online access" the
defining trait of the modern WoD setting; SPARQL is that endpoint language.
The subset modelled here covers what the surveyed exploration systems
actually issue: SELECT / ASK / CONSTRUCT / DESCRIBE over basic graph
patterns with FILTER, OPTIONAL, UNION, BIND, grouping with the standard
aggregates, DISTINCT, ORDER BY, and LIMIT/OFFSET.

Nodes are plain frozen dataclasses; the parser builds them, the logical
plan builder (:func:`repro.sparql.plan.build_pattern_plan`) consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..rdf.terms import IRI, Literal, Variable

__all__ = [
    "TermOrVar",
    "TriplePatternNode",
    "GroupGraphPattern",
    "OptionalPattern",
    "UnionPattern",
    "FilterPattern",
    "BindPattern",
    "ValuesPattern",
    "Expression",
    "VariableExpr",
    "TermExpr",
    "UnaryExpr",
    "BinaryExpr",
    "FunctionCall",
    "AggregateExpr",
    "Projection",
    "OrderCondition",
    "SelectQuery",
    "AskQuery",
    "ConstructQuery",
    "DescribeQuery",
    "Query",
]

TermOrVar = Union[IRI, Literal, Variable, str]  # str covers BNode labels


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


class Expression:
    """Marker base class for filter/bind expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class VariableExpr(Expression):
    """A variable reference inside an expression."""

    variable: Variable


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant RDF term inside an expression."""

    term: IRI | Literal


@dataclass(frozen=True)
class UnaryExpr(Expression):
    """``!expr`` or ``-expr`` or ``+expr``."""

    operator: str
    operand: Expression


@dataclass(frozen=True)
class BinaryExpr(Expression):
    """Binary operator: ``&& || = != < <= > >= + - * /  IN``."""

    operator: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Built-in call: REGEX, STR, LANG, DATATYPE, BOUND, CONTAINS, ..."""

    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class AggregateExpr(Expression):
    """COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT, optionally DISTINCT.

    ``argument`` is ``None`` for ``COUNT(*)``.
    """

    name: str
    argument: Expression | None
    distinct: bool = False
    separator: str = " "


# --------------------------------------------------------------------------- #
# Graph patterns
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TriplePatternNode:
    """A triple pattern whose positions may be variables."""

    subject: TermOrVar
    predicate: TermOrVar
    object: TermOrVar

    def variables(self) -> set[Variable]:
        return {t for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)}


@dataclass(frozen=True)
class OptionalPattern:
    """``OPTIONAL { ... }``"""

    pattern: "GroupGraphPattern"


@dataclass(frozen=True)
class UnionPattern:
    """``{ A } UNION { B } (UNION { C } ...)``"""

    alternatives: tuple["GroupGraphPattern", ...]


@dataclass(frozen=True)
class FilterPattern:
    """``FILTER ( expr )``"""

    expression: Expression


@dataclass(frozen=True)
class BindPattern:
    """``BIND ( expr AS ?var )``"""

    expression: Expression
    variable: Variable


@dataclass(frozen=True)
class ValuesPattern:
    """``VALUES ?x { ... }`` / ``VALUES (?x ?y) { (a b) ... }``.

    ``rows`` holds one term tuple per row; ``None`` marks ``UNDEF``.
    """

    variables: tuple[Variable, ...]
    rows: tuple[tuple[IRI | Literal | None, ...], ...]


GroupElement = Union[
    TriplePatternNode, OptionalPattern, UnionPattern, FilterPattern, BindPattern,
    ValuesPattern, "GroupGraphPattern",
]


@dataclass(frozen=True)
class GroupGraphPattern:
    """``{ ... }`` — an ordered list of pattern elements."""

    elements: tuple[GroupElement, ...] = ()

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for element in self.elements:
            if isinstance(element, TriplePatternNode):
                result |= element.variables()
            elif isinstance(element, OptionalPattern):
                result |= element.pattern.variables()
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    result |= alternative.variables()
            elif isinstance(element, BindPattern):
                result.add(element.variable)
            elif isinstance(element, ValuesPattern):
                result |= set(element.variables)
            elif isinstance(element, GroupGraphPattern):
                result |= element.variables()
        return result


# --------------------------------------------------------------------------- #
# Query forms
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a plain variable or ``(expr AS ?alias)``."""

    variable: Variable
    expression: Expression | None = None  # None = project the variable itself


@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    projections: tuple[Projection, ...]  # empty tuple = SELECT *
    where: GroupGraphPattern
    distinct: bool = False
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderCondition, ...] = ()
    limit: int | None = None
    offset: int = 0
    prefixes: dict[str, str] = field(default_factory=dict, compare=False)

    @property
    def select_all(self) -> bool:
        return not self.projections


@dataclass(frozen=True)
class AskQuery:
    where: GroupGraphPattern
    prefixes: dict[str, str] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ConstructQuery:
    template: tuple[TriplePatternNode, ...]
    where: GroupGraphPattern
    limit: int | None = None
    offset: int = 0
    prefixes: dict[str, str] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class DescribeQuery:
    resources: tuple[IRI | Variable, ...]
    where: GroupGraphPattern | None = None
    prefixes: dict[str, str] = field(default_factory=dict, compare=False)


Query = Union[SelectQuery, AskQuery, ConstructQuery, DescribeQuery]
