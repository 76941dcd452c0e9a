"""Recursive-descent parser for the SPARQL subset.

Grammar notes (deviations from full SPARQL 1.1 are deliberate and raise
clear errors rather than misparse):

* property paths, named graphs, subqueries, VALUES, and federation are out
  of scope;
* comparison operators must be whitespace-separated from ``<``-starting
  IRIs (as in hand-written SPARQL).
"""

from __future__ import annotations

from ..rdf.terms import IRI, Literal, Variable
from ..rdf.vocab import DEFAULT_PREFIXES, RDF, XSD
from .lexer import AGGREGATES, FUNCTIONS, SparqlSyntaxError, Token, tokenize
from .nodes import (
    AggregateExpr,
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
    VariableExpr,
)

__all__ = ["parse_query", "SparqlSyntaxError"]


def parse_query(text: str) -> Query:
    """Parse SPARQL text into a query AST."""
    return _Parser(tokenize(text), text).parse()


class _Parser:
    def __init__(self, tokens: list[Token], text: str) -> None:
        self._tokens = tokens
        self._i = 0
        self._text = text
        self._prefixes: dict[str, str] = dict(DEFAULT_PREFIXES)
        self._base = ""

    # -- token plumbing ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._i + ahead, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._tokens[self._i]
        if token.kind != "EOF":
            self._i += 1
        return token

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            return self._next()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise SparqlSyntaxError(
                f"line {token.line}: expected {value or kind}, got {token.value or 'EOF'!r}"
            )
        return token

    def _error(self, message: str) -> SparqlSyntaxError:
        token = self._peek()
        return SparqlSyntaxError(f"line {token.line}: {message} (at {token.value or 'EOF'!r})")

    # -- entry point --------------------------------------------------------

    def parse(self) -> Query:
        self._prologue()
        token = self._peek()
        if token.kind != "KEYWORD":
            raise self._error("expected SELECT, ASK, CONSTRUCT, or DESCRIBE")
        if token.value == "SELECT":
            query = self._select()
        elif token.value == "ASK":
            query = self._ask()
        elif token.value == "CONSTRUCT":
            query = self._construct()
        elif token.value == "DESCRIBE":
            query = self._describe()
        else:
            raise self._error("expected SELECT, ASK, CONSTRUCT, or DESCRIBE")
        if self._peek().kind != "EOF":
            raise self._error("unexpected trailing input")
        return query

    def _prologue(self) -> None:
        while True:
            if self._accept("KEYWORD", "PREFIX"):
                name = self._expect("QNAME")
                prefix = name.value.split(":", 1)[0]
                iri = self._expect("IRIREF")
                self._prefixes[prefix] = iri.value[1:-1]
            elif self._accept("KEYWORD", "BASE"):
                iri = self._expect("IRIREF")
                self._base = iri.value[1:-1]
            else:
                return

    # -- query forms ---------------------------------------------------------

    def _select(self) -> SelectQuery:
        self._expect("KEYWORD", "SELECT")
        distinct = bool(self._accept("KEYWORD", "DISTINCT")) or bool(
            self._accept("KEYWORD", "REDUCED")
        )
        projections: list[Projection] = []
        if not self._accept("OP", "*"):
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    self._next()
                    projections.append(Projection(Variable(token.value[1:])))
                elif token.kind == "PUNCT" and token.value == "(":
                    self._next()
                    expression = self._expression()
                    self._expect("KEYWORD", "AS")
                    var = self._expect("VAR")
                    self._expect("PUNCT", ")")
                    projections.append(Projection(Variable(var.value[1:]), expression))
                else:
                    break
            if not projections:
                raise self._error("SELECT needs * or at least one variable")
        self._accept("KEYWORD", "WHERE")
        where = self._group_graph_pattern()
        group_by: tuple[Expression, ...] = ()
        having: Expression | None = None
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            keys: list[Expression] = []
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    self._next()
                    keys.append(VariableExpr(Variable(token.value[1:])))
                elif token.kind == "PUNCT" and token.value == "(":
                    self._next()
                    keys.append(self._expression())
                    self._expect("PUNCT", ")")
                else:
                    break
            if not keys:
                raise self._error("GROUP BY needs at least one key")
            group_by = tuple(keys)
        if self._accept("KEYWORD", "HAVING"):
            self._expect("PUNCT", "(")
            having = self._expression()
            self._expect("PUNCT", ")")
        order_by = self._order_clause()
        limit, offset = self._limit_offset()
        return SelectQuery(
            projections=tuple(projections),
            where=where,
            distinct=distinct,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            prefixes=dict(self._prefixes),
        )

    def _ask(self) -> AskQuery:
        self._expect("KEYWORD", "ASK")
        self._accept("KEYWORD", "WHERE")
        return AskQuery(where=self._group_graph_pattern(), prefixes=dict(self._prefixes))

    def _construct(self) -> ConstructQuery:
        self._expect("KEYWORD", "CONSTRUCT")
        self._expect("PUNCT", "{")
        template: list[TriplePatternNode] = []
        while not (self._peek().kind == "PUNCT" and self._peek().value == "}"):
            template.extend(self._triples_same_subject())
            if not self._accept("PUNCT", "."):
                break
        self._expect("PUNCT", "}")
        self._expect("KEYWORD", "WHERE")
        where = self._group_graph_pattern()
        limit, offset = self._limit_offset()
        return ConstructQuery(
            template=tuple(template),
            where=where,
            limit=limit,
            offset=offset,
            prefixes=dict(self._prefixes),
        )

    def _describe(self) -> DescribeQuery:
        self._expect("KEYWORD", "DESCRIBE")
        resources: list[IRI | Variable] = []
        while True:
            token = self._peek()
            if token.kind == "VAR":
                self._next()
                resources.append(Variable(token.value[1:]))
            elif token.kind in ("IRIREF", "QNAME"):
                resources.append(self._iri())
            else:
                break
        if not resources:
            raise self._error("DESCRIBE needs at least one resource or variable")
        where = None
        if self._peek().kind == "KEYWORD" and self._peek().value == "WHERE":
            self._next()
            where = self._group_graph_pattern()
        elif self._peek().kind == "PUNCT" and self._peek().value == "{":
            where = self._group_graph_pattern()
        return DescribeQuery(
            resources=tuple(resources), where=where, prefixes=dict(self._prefixes)
        )

    def _order_clause(self) -> tuple[OrderCondition, ...]:
        if not self._accept("KEYWORD", "ORDER"):
            return ()
        self._expect("KEYWORD", "BY")
        conditions: list[OrderCondition] = []
        while True:
            token = self._peek()
            if token.kind == "KEYWORD" and token.value in ("ASC", "DESC"):
                self._next()
                descending = token.value == "DESC"
                self._expect("PUNCT", "(")
                expression = self._expression()
                self._expect("PUNCT", ")")
                conditions.append(OrderCondition(expression, descending))
            elif token.kind == "VAR":
                self._next()
                conditions.append(OrderCondition(VariableExpr(Variable(token.value[1:]))))
            elif token.kind == "PUNCT" and token.value == "(":
                self._next()
                expression = self._expression()
                self._expect("PUNCT", ")")
                conditions.append(OrderCondition(expression))
            else:
                break
        if not conditions:
            raise self._error("ORDER BY needs at least one condition")
        return tuple(conditions)

    def _limit_offset(self) -> tuple[int | None, int]:
        limit: int | None = None
        offset = 0
        for _ in range(2):  # LIMIT/OFFSET may appear in either order
            if self._accept("KEYWORD", "LIMIT"):
                limit = int(self._expect("INTEGER").value)
            elif self._accept("KEYWORD", "OFFSET"):
                offset = int(self._expect("INTEGER").value)
        return limit, offset

    # -- graph patterns --------------------------------------------------------

    def _group_graph_pattern(self) -> GroupGraphPattern:
        self._expect("PUNCT", "{")
        elements: list = []
        while True:
            token = self._peek()
            if token.kind == "PUNCT" and token.value == "}":
                break
            if token.kind == "KEYWORD" and token.value == "FILTER":
                self._next()
                self._expect("PUNCT", "(")
                elements.append(FilterPattern(self._expression()))
                self._expect("PUNCT", ")")
                self._accept("PUNCT", ".")
                continue
            if token.kind == "KEYWORD" and token.value == "OPTIONAL":
                self._next()
                elements.append(OptionalPattern(self._group_graph_pattern()))
                self._accept("PUNCT", ".")
                continue
            if token.kind == "KEYWORD" and token.value == "VALUES":
                self._next()
                elements.append(self._values_pattern())
                self._accept("PUNCT", ".")
                continue
            if token.kind == "KEYWORD" and token.value == "BIND":
                self._next()
                self._expect("PUNCT", "(")
                expression = self._expression()
                self._expect("KEYWORD", "AS")
                var = self._expect("VAR")
                self._expect("PUNCT", ")")
                elements.append(BindPattern(expression, Variable(var.value[1:])))
                self._accept("PUNCT", ".")
                continue
            if token.kind == "PUNCT" and token.value == "{":
                group = self._group_graph_pattern()
                alternatives = [group]
                while self._peek().kind == "KEYWORD" and self._peek().value == "UNION":
                    self._next()
                    alternatives.append(self._group_graph_pattern())
                if len(alternatives) > 1:
                    elements.append(UnionPattern(tuple(alternatives)))
                else:
                    elements.append(group)
                self._accept("PUNCT", ".")
                continue
            elements.extend(self._triples_same_subject())
            # The '.' separator is optional before FILTER/OPTIONAL/BIND/'}'.
            self._accept("PUNCT", ".")
        self._expect("PUNCT", "}")
        return GroupGraphPattern(tuple(elements))

    def _values_pattern(self) -> "ValuesPattern":
        """``VALUES ?x { v ... }`` or ``VALUES (?x ?y) { (a b) ... }``."""
        from .nodes import ValuesPattern

        variables: list[Variable] = []
        if self._accept("PUNCT", "("):
            while self._peek().kind == "VAR":
                variables.append(Variable(self._next().value[1:]))
            self._expect("PUNCT", ")")
            parenthesized = True
        else:
            var = self._expect("VAR")
            variables.append(Variable(var.value[1:]))
            parenthesized = False
        if not variables:
            raise self._error("VALUES needs at least one variable")
        self._expect("PUNCT", "{")
        rows: list[tuple] = []
        while not (self._peek().kind == "PUNCT" and self._peek().value == "}"):
            if parenthesized:
                self._expect("PUNCT", "(")
                row = [self._values_term() for _ in variables]
                self._expect("PUNCT", ")")
            else:
                row = [self._values_term()]
            rows.append(tuple(row))
        self._expect("PUNCT", "}")
        return ValuesPattern(tuple(variables), tuple(rows))

    def _values_term(self):
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == "UNDEF":
            self._next()
            return None
        if token.kind in ("IRIREF", "QNAME"):
            return self._iri()
        return self._literal()

    def _triples_same_subject(self) -> list[TriplePatternNode]:
        subject = self._term(position="subject")
        triples: list[TriplePatternNode] = []
        while True:
            predicate = self._term(position="predicate")
            while True:
                obj = self._term(position="object")
                triples.append(TriplePatternNode(subject, predicate, obj))
                if not self._accept("PUNCT", ","):
                    break
            if self._accept("PUNCT", ";"):
                nxt = self._peek()
                if nxt.kind == "PUNCT" and nxt.value in (".", "}"):
                    break
                continue
            break
        return triples

    def _term(self, position: str):
        token = self._peek()
        if token.kind == "VAR":
            self._next()
            return Variable(token.value[1:])
        if token.kind == "KEYWORD" and token.value == "A" and position == "predicate":
            self._next()
            return RDF.type
        if token.kind in ("IRIREF", "QNAME"):
            return self._iri()
        if position == "predicate":
            raise self._error("expected predicate (IRI, prefixed name, 'a', or variable)")
        if token.kind == "BNODE":
            self._next()
            from ..rdf.terms import BNode

            return BNode(token.value[2:])
        if (
            token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE")
            or (token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"))
            or (token.kind == "OP" and token.value in ("+", "-"))
        ):
            return self._literal()
        raise self._error(f"expected {position} term")

    def _iri(self) -> IRI:
        token = self._next()
        if token.kind == "IRIREF":
            iri = token.value[1:-1]
            if self._base and not _is_absolute(iri):
                iri = self._base + iri
            return IRI(iri)
        if token.kind == "QNAME":
            prefix, _, local = token.value.partition(":")
            try:
                return IRI(self._prefixes[prefix] + local)
            except KeyError:
                raise SparqlSyntaxError(
                    f"line {token.line}: unbound prefix {prefix!r}"
                ) from None
        raise SparqlSyntaxError(f"line {token.line}: expected IRI, got {token.value!r}")

    def _literal(self) -> Literal:
        token = self._next()
        if (
            token.kind == "OP"
            and token.value in ("+", "-")
            and self._peek().kind in ("INTEGER", "DECIMAL", "DOUBLE")
        ):
            # The lexer splits a sign off a number that follows an operand
            # (``20+1``); where the grammar wants a term (``?s ex:p -5``,
            # VALUES data) it is the number's sign after all.
            number = self._next()
            token = Token(number.kind, token.value + number.value, number.line)
        if token.kind == "STRING":
            lexical = _unescape_string(token.value[1:-1])
            nxt = self._peek()
            if nxt.kind == "LANGTAG":
                self._next()
                return Literal(lexical, lang=nxt.value[1:])
            if nxt.kind == "DTYPE":
                self._next()
                return Literal(lexical, datatype=str(self._iri()))
            return Literal(lexical)
        if token.kind == "INTEGER":
            return Literal(token.value, datatype=str(XSD.integer))
        if token.kind == "DECIMAL":
            return Literal(token.value, datatype=str(XSD.decimal))
        if token.kind == "DOUBLE":
            return Literal(token.value, datatype=str(XSD.double))
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value.lower(), datatype=str(XSD.boolean))
        raise SparqlSyntaxError(f"line {token.line}: expected literal, got {token.value!r}")

    # -- expressions -------------------------------------------------------------

    def _expression(self) -> Expression:
        return self._or_expression()

    def _or_expression(self) -> Expression:
        left = self._and_expression()
        while self._accept("OP", "||"):
            left = BinaryExpr("||", left, self._and_expression())
        return left

    def _and_expression(self) -> Expression:
        left = self._relational_expression()
        while self._accept("OP", "&&"):
            left = BinaryExpr("&&", left, self._relational_expression())
        return left

    def _relational_expression(self) -> Expression:
        left = self._additive_expression()
        token = self._peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            return BinaryExpr(token.value, left, self._additive_expression())
        if token.kind == "KEYWORD" and token.value == "IN":
            self._next()
            return BinaryExpr("IN", left, self._expression_list())
        if token.kind == "KEYWORD" and token.value == "NOT":
            self._next()
            self._expect("KEYWORD", "IN")
            return UnaryExpr("!", BinaryExpr("IN", left, self._expression_list()))
        return left

    def _expression_list(self) -> Expression:
        self._expect("PUNCT", "(")
        items: list[Expression] = [self._expression()]
        while self._accept("PUNCT", ","):
            items.append(self._expression())
        self._expect("PUNCT", ")")
        return FunctionCall("_LIST", tuple(items))

    def _additive_expression(self) -> Expression:
        left = self._multiplicative_expression()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                self._next()
                left = BinaryExpr(token.value, left, self._multiplicative_expression())
            else:
                return left

    def _multiplicative_expression(self) -> Expression:
        left = self._unary_expression()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("*", "/"):
                self._next()
                left = BinaryExpr(token.value, left, self._unary_expression())
            else:
                return left

    def _unary_expression(self) -> Expression:
        token = self._peek()
        if token.kind == "OP" and token.value in ("!", "-", "+"):
            self._next()
            return UnaryExpr(token.value, self._unary_expression())
        return self._primary_expression()

    def _primary_expression(self) -> Expression:
        token = self._peek()
        if token.kind == "PUNCT" and token.value == "(":
            self._next()
            expression = self._expression()
            self._expect("PUNCT", ")")
            return expression
        if token.kind == "VAR":
            self._next()
            return VariableExpr(Variable(token.value[1:]))
        if token.kind == "KEYWORD" and token.value in AGGREGATES:
            return self._aggregate()
        if token.kind == "KEYWORD" and token.value in FUNCTIONS:
            self._next()
            name = token.value
            self._expect("PUNCT", "(")
            args: list[Expression] = []
            if not (self._peek().kind == "PUNCT" and self._peek().value == ")"):
                args.append(self._expression())
                while self._accept("PUNCT", ","):
                    args.append(self._expression())
            self._expect("PUNCT", ")")
            return FunctionCall(name, tuple(args))
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE") or (
            token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE")
        ):
            return TermExpr(self._literal())
        if token.kind in ("IRIREF", "QNAME"):
            return TermExpr(self._iri())
        raise self._error("expected expression")

    def _aggregate(self) -> AggregateExpr:
        name = self._next().value
        self._expect("PUNCT", "(")
        distinct = bool(self._accept("KEYWORD", "DISTINCT"))
        if name == "COUNT" and self._accept("OP", "*"):
            self._expect("PUNCT", ")")
            return AggregateExpr("COUNT", None, distinct)
        argument = self._expression()
        separator = " "
        if name == "GROUP_CONCAT" and self._accept("PUNCT", ";"):
            # GROUP_CONCAT(?x; SEPARATOR=", ")  — SEPARATOR arrives as QNAME-ish
            sep_token = self._next()
            if sep_token.value.upper() != "SEPARATOR":
                raise SparqlSyntaxError(
                    f"line {sep_token.line}: expected SEPARATOR, got {sep_token.value!r}"
                )
            self._expect("OP", "=")
            separator = _unescape_string(self._expect("STRING").value[1:-1])
        self._expect("PUNCT", ")")
        return AggregateExpr(name, argument, distinct, separator)


def _is_absolute(iri: str) -> bool:
    import re as _re

    return bool(_re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", iri))


def _unescape_string(text: str) -> str:
    from ..rdf.ntriples import _unescape

    return _unescape(text)
