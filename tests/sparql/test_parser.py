"""Unit tests for the SPARQL lexer and parser."""

import pytest

from repro.rdf import IRI, Literal, RDF, Variable, XSD
from repro.sparql import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    SelectQuery,
    SparqlSyntaxError,
    parse_query,
    tokenize,
)
from repro.sparql.nodes import (
    AggregateExpr,
    BinaryExpr,
    BindPattern,
    FilterPattern,
    FunctionCall,
    OptionalPattern,
    TriplePatternNode,
    UnionPattern,
    VariableExpr,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select Select SELECT")]
        assert kinds == ["KEYWORD"] * 3 + ["EOF"]

    def test_variables(self):
        tokens = tokenize("?x $y")
        assert [t.kind for t in tokens[:2]] == ["VAR", "VAR"]

    def test_unknown_bare_identifier_rejected(self):
        with pytest.raises(SparqlSyntaxError, match="unknown identifier"):
            tokenize("SELECT banana")

    def test_line_numbers(self):
        tokens = tokenize("SELECT\n?x")
        assert tokens[1].line == 2

    def test_comment_skipped(self):
        tokens = tokenize("SELECT # comment\n ?x")
        assert [t.kind for t in tokens[:2]] == ["KEYWORD", "VAR"]


class TestSelectParsing:
    def test_simple_select(self):
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert isinstance(q, SelectQuery)
        assert q.projections[0].variable == Variable("s")
        assert len(q.where.elements) == 1

    def test_select_star(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert q.select_all

    def test_distinct(self):
        q = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert q.distinct

    def test_prefixed_names_expand(self):
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:knows ?o }"
        )
        pattern = q.where.elements[0]
        assert pattern.predicate == IRI("http://example.org/knows")

    def test_default_prefixes_available(self):
        q = parse_query("SELECT ?s WHERE { ?s rdf:type foaf:Person }")
        pattern = q.where.elements[0]
        assert pattern.predicate == RDF.type

    def test_a_shorthand(self):
        q = parse_query("SELECT ?s WHERE { ?s a foaf:Person }")
        assert q.where.elements[0].predicate == RDF.type

    def test_semicolon_and_comma(self):
        q = parse_query(
            "SELECT * WHERE { ?s a foaf:Person ; foaf:knows ?a, ?b . }"
        )
        assert len(q.where.elements) == 3

    def test_literals(self):
        q = parse_query('SELECT * WHERE { ?s foaf:age 42 . ?s foaf:name "Al" }')
        ages = [e for e in q.where.elements if isinstance(e.object, Literal)]
        assert Literal("42", datatype=str(XSD.integer)) in [e.object for e in ages]

    def test_typed_and_lang_literals(self):
        q = parse_query(
            'SELECT * WHERE { ?s ?p "x"@en . ?s ?q "3"^^xsd:integer }'
        )
        objects = [e.object for e in q.where.elements]
        assert Literal("x", lang="en") in objects
        assert Literal("3", datatype=str(XSD.integer)) in objects

    def test_limit_offset_any_order(self):
        q1 = parse_query("SELECT * WHERE { ?s ?p ?o } LIMIT 5 OFFSET 2")
        q2 = parse_query("SELECT * WHERE { ?s ?p ?o } OFFSET 2 LIMIT 5")
        assert (q1.limit, q1.offset) == (5, 2)
        assert (q2.limit, q2.offset) == (5, 2)

    def test_order_by(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s")
        assert q.order_by[0].descending
        assert not q.order_by[1].descending

    def test_group_by_and_aggregate_projection(self):
        q = parse_query(
            "SELECT ?type (COUNT(?s) AS ?n) WHERE { ?s a ?type } GROUP BY ?type"
        )
        assert isinstance(q.group_by[0], VariableExpr)
        assert isinstance(q.projections[1].expression, AggregateExpr)

    def test_count_star(self):
        q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        agg = q.projections[0].expression
        assert agg.name == "COUNT" and agg.argument is None

    def test_group_concat_separator(self):
        q = parse_query(
            'SELECT (GROUP_CONCAT(?x; SEPARATOR=", ") AS ?all) WHERE { ?s ?p ?x }'
        )
        assert q.projections[0].expression.separator == ", "

    def test_having(self):
        q = parse_query(
            "SELECT ?t WHERE { ?s a ?t } GROUP BY ?t HAVING (COUNT(?s) > 2)"
        )
        assert isinstance(q.having, BinaryExpr)


class TestGraphPatterns:
    def test_filter(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o FILTER (?o > 5) }")
        filters = [e for e in q.where.elements if isinstance(e, FilterPattern)]
        assert len(filters) == 1

    def test_optional(self):
        q = parse_query("SELECT * WHERE { ?s a ?t OPTIONAL { ?s foaf:name ?n } }")
        optionals = [e for e in q.where.elements if isinstance(e, OptionalPattern)]
        assert len(optionals) == 1

    def test_union(self):
        q = parse_query(
            "SELECT * WHERE { { ?s a foaf:Person } UNION { ?s a foaf:Agent } }"
        )
        unions = [e for e in q.where.elements if isinstance(e, UnionPattern)]
        assert len(unions) == 1
        assert len(unions[0].alternatives) == 2

    def test_three_way_union(self):
        q = parse_query(
            "SELECT * WHERE { { ?s a ?x } UNION { ?s ?p ?x } UNION { ?x ?p ?s } }"
        )
        union = q.where.elements[0]
        assert len(union.alternatives) == 3

    def test_bind(self):
        q = parse_query("SELECT * WHERE { ?s foaf:age ?a BIND (?a * 2 AS ?double) }")
        binds = [e for e in q.where.elements if isinstance(e, BindPattern)]
        assert binds[0].variable == Variable("double")

    def test_nested_group(self):
        q = parse_query("SELECT * WHERE { { ?s ?p ?o } FILTER (?o > 1) }")
        assert q.where.elements

    def test_filter_functions(self):
        q = parse_query('SELECT * WHERE { ?s ?p ?o FILTER (REGEX(STR(?o), "^a")) }')
        fil = next(e for e in q.where.elements if isinstance(e, FilterPattern))
        assert isinstance(fil.expression, FunctionCall)
        assert fil.expression.name == "REGEX"

    def test_in_expression(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o FILTER (?o IN (1, 2, 3)) }")
        fil = next(e for e in q.where.elements if isinstance(e, FilterPattern))
        assert fil.expression.operator == "IN"


class TestSignedNumbers:
    """ROADMAP item 9: ``20+1`` used to lex as INTEGER(20) INTEGER(+1)."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("20+1", [("INTEGER", "20"), ("OP", "+"), ("INTEGER", "1")]),
            ("20 +1", [("INTEGER", "20"), ("OP", "+"), ("INTEGER", "1")]),
            ("20 + 1", [("INTEGER", "20"), ("OP", "+"), ("INTEGER", "1")]),
            ("?a-1", [("VAR", "?a"), ("OP", "-"), ("INTEGER", "1")]),
            ("(-1)", [("PUNCT", "("), ("INTEGER", "-1"), ("PUNCT", ")")]),
            ("1e-3", [("DOUBLE", "1e-3")]),
            ("2.5-.5", [("DECIMAL", "2.5"), ("OP", "-"), ("DECIMAL", ".5")]),
            (
                "FILTER(?v > -5)",
                [("KEYWORD", "FILTER"), ("PUNCT", "("), ("VAR", "?v"),
                 ("OP", ">"), ("INTEGER", "-5"), ("PUNCT", ")")],
            ),
        ],
    )
    def test_sign_joins_a_number_only_where_one_may_start(self, text, expected):
        assert [(t.kind, t.value) for t in tokenize(text)[:-1]] == expected

    def test_arithmetic_without_spaces_parses(self):
        q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?v FILTER(?v < 20+1) }")
        comparison = q.where.elements[-1].expression
        assert comparison.operator == "<"
        assert comparison.right == BinaryExpr(
            "+", comparison.right.left, comparison.right.right)
        assert comparison.right.left.term == Literal("20", datatype=str(XSD.integer))

    def test_signed_literals_stay_terms_in_patterns_and_values(self):
        q = parse_query(
            "SELECT ?s WHERE { VALUES ?v { 1 -2 } ?s <http://x/p> -5 . ?s <http://x/q> ?v }")
        values, pattern = q.where.elements[0], q.where.elements[1]
        assert values.rows == (
            (Literal("1", datatype=str(XSD.integer)),),
            (Literal("-2", datatype=str(XSD.integer)),),
        )
        assert pattern.object == Literal("-5", datatype=str(XSD.integer))

    def test_filter_arithmetic_evaluates(self):
        from repro.rdf import Triple
        from repro.sparql import QueryEngine
        from repro.store import MemoryStore

        store = MemoryStore(
            Triple(IRI(f"http://x/e{i}"), IRI("http://x/p"), Literal(i))
            for i in range(15, 25)
        )
        for query in (
            "SELECT ?v WHERE { ?s <http://x/p> ?v FILTER(?v < 20+1) }",
            "SELECT ?v WHERE { ?s <http://x/p> ?v FILTER(?v-1 < 20) }",
        ):
            result = QueryEngine(store).query(query)
            assert sorted(row["v"].value for row in result.rows) == list(range(15, 21))


class TestOtherForms:
    def test_ask(self):
        q = parse_query("ASK { ?s a foaf:Person }")
        assert isinstance(q, AskQuery)

    def test_construct(self):
        q = parse_query(
            "CONSTRUCT { ?s foaf:label ?n } WHERE { ?s foaf:name ?n } LIMIT 10"
        )
        assert isinstance(q, ConstructQuery)
        assert len(q.template) == 1
        assert q.limit == 10

    def test_describe_iri(self):
        q = parse_query("DESCRIBE <http://example.org/alice>")
        assert isinstance(q, DescribeQuery)
        assert q.resources == (IRI("http://example.org/alice"),)

    def test_describe_variable_with_where(self):
        q = parse_query("DESCRIBE ?s WHERE { ?s a foaf:Person }")
        assert q.where is not None


class TestErrors:
    def test_empty_select(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT WHERE { ?s ?p ?o }")

    def test_unclosed_brace(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT * WHERE { ?s ?p ?o")

    def test_unbound_prefix(self):
        with pytest.raises(SparqlSyntaxError, match="unbound prefix"):
            parse_query("SELECT * WHERE { ?s nope:p ?o }")

    def test_trailing_garbage(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT * WHERE { ?s ?p ?o } extra:stuff ?x")

    def test_literal_predicate_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query('SELECT * WHERE { ?s "p" ?o }')

    def test_missing_query_form(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("PREFIX ex: <http://example.org/>")
