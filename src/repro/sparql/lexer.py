"""Tokenizer for the SPARQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Token", "tokenize", "SparqlSyntaxError"]


class SparqlSyntaxError(ValueError):
    """Raised on malformed SPARQL text, with line context."""


KEYWORDS = {
    "SELECT", "ASK", "CONSTRUCT", "DESCRIBE", "WHERE", "FILTER", "OPTIONAL",
    "UNION", "PREFIX", "BASE", "DISTINCT", "REDUCED", "ORDER", "BY", "ASC",
    "DESC", "LIMIT", "OFFSET", "GROUP", "HAVING", "AS", "BIND", "IN", "NOT",
    "A", "TRUE", "FALSE", "VALUES", "UNDEF", "SEPARATOR",
}

FUNCTIONS = {
    "REGEX", "STR", "LANG", "LANGMATCHES", "DATATYPE", "BOUND", "IRI", "URI",
    "ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "STRSTARTS",
    "STRENDS", "CONTAINS", "STRLEN", "UCASE", "LCASE", "ABS", "CEIL", "FLOOR",
    "ROUND", "YEAR", "MONTH", "DAY", "COALESCE", "IF", "CONCAT", "SUBSTR",
    "REPLACE",
}

AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<DOUBLE>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
  | (?P<DECIMAL>[+-]?\d*\.\d+)
  | (?P<INTEGER>[+-]?\d+)
  | (?P<BNODE>_:[A-Za-z0-9][A-Za-z0-9_.-]*)
  | (?P<QNAME_OR_KEYWORD>[A-Za-z_][A-Za-z0-9_-]*(?::[A-Za-z0-9_][\w.-]*|:)?)
  | (?P<COLON_LOCAL>:[A-Za-z0-9_][\w.-]*)
  | (?P<DTYPE>\^\^)
  | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<OP>&&|\|\||!=|<=|>=|[=<>!+\-*/])
  | (?P<PUNCT>[{}().,;]|\[|\])
    """,
    re.VERBOSE,
)


_NUMBER_KINDS = frozenset({"INTEGER", "DECIMAL", "DOUBLE"})


def _ends_operand(token: "Token") -> bool:
    """Whether ``token`` can end an operand, so a following ``+``/``-`` is
    the binary operator, not the sign of a number (``20+1``, ``?a-1``)."""
    if token.kind == "PUNCT":
        return token.value == ")"
    if token.kind == "KEYWORD":
        return token.value in ("TRUE", "FALSE")
    return token.kind in _NUMBER_KINDS or token.kind in (
        "VAR", "IRIREF", "QNAME", "STRING", "LANGTAG"
    )


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize SPARQL text; raises :class:`SparqlSyntaxError` on garbage.

    Keyword recognition is case-insensitive; prefixed names keep their case.
    Bare identifiers that are keywords/functions/aggregates are tagged
    ``KEYWORD``; identifiers containing ``:`` are ``QNAME``.
    """
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise SparqlSyntaxError(f"line {line}: unexpected character {text[pos]!r}")
        kind = match.lastgroup or ""
        value = match.group(0)
        if kind == "WS":
            line += value.count("\n")
            pos = match.end()
            continue
        if kind == "QNAME_OR_KEYWORD":
            upper = value.upper()
            if ":" in value:
                kind = "QNAME"
            elif upper in KEYWORDS or upper in FUNCTIONS or upper in AGGREGATES:
                kind = "KEYWORD"
                value = upper
            else:
                raise SparqlSyntaxError(
                    f"line {line}: unknown identifier {value!r} "
                    "(bare names must be keywords or prefixed names)"
                )
        elif kind == "COLON_LOCAL":
            kind = "QNAME"
        elif (
            kind in _NUMBER_KINDS
            and value[0] in "+-"
            and tokens
            and _ends_operand(tokens[-1])
        ):
            # The sign belongs to the number only where a number may start.
            tokens.append(Token("OP", value[0], line))
            pos += 1
            continue
        # '<' is ambiguous: IRIREF already matched '<...>'; a lone '<' is OP.
        tokens.append(Token(kind, value, line))
        line += value.count("\n")
        pos = match.end()
    tokens.append(Token("EOF", "", line))
    return tokens
