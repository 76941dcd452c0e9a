"""Unit tests for the RDF term model."""

import pytest

from repro.rdf import BNode, IRI, Literal, Triple, Variable, XSD, term_sort_key


class TestIRI:
    def test_is_string_subtype(self):
        iri = IRI("http://example.org/a")
        assert isinstance(iri, str)
        assert iri == "http://example.org/a"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_rejects_forbidden_characters(self):
        for ch in ("<", ">", '"', " ", "\n", "\t"):
            with pytest.raises(ValueError, match="forbidden"):
                IRI(f"http://x.org/a{ch}b")

    def test_local_name_fragment(self):
        assert IRI("http://example.org/ns#Person").local_name == "Person"

    def test_local_name_path(self):
        assert IRI("http://example.org/people/alice").local_name == "alice"

    def test_namespace(self):
        assert IRI("http://example.org/ns#Person").namespace == "http://example.org/ns#"

    def test_n3(self):
        assert IRI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_hashable_and_equal_to_plain_string(self):
        assert hash(IRI("http://x.org/a")) == hash("http://x.org/a")


class TestBNode:
    def test_fresh_labels_are_unique(self):
        assert BNode() != BNode()

    def test_explicit_label(self):
        assert BNode("n1") == "n1"

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            BNode("")

    def test_n3(self):
        assert BNode("n1").n3() == "_:n1"


class TestLiteral:
    def test_plain_string_defaults_to_xsd_string(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype == str(XSD.string)
        assert lit.value == "hello"

    def test_integer_inference(self):
        lit = Literal(42)
        assert lit.datatype == str(XSD.integer)
        assert lit.value == 42
        assert lit.is_numeric

    def test_float_inference(self):
        lit = Literal(3.5)
        assert lit.datatype == str(XSD.double)
        assert lit.value == 3.5
        assert lit.is_numeric

    def test_boolean_inference(self):
        assert Literal(True).lexical == "true"
        assert Literal(False).value is False

    def test_language_tag_normalized_lowercase(self):
        lit = Literal("chat", lang="FR")
        assert lit.lang == "fr"

    def test_lang_and_datatype_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=str(XSD.string), lang="en")

    def test_numeric_coercion_from_lexical(self):
        assert Literal("17", datatype=str(XSD.integer)).value == 17
        assert Literal("2.5", datatype=str(XSD.decimal)).value == 2.5

    def test_bad_lexical_falls_back_to_string_value(self):
        lit = Literal("not-a-number", datatype=str(XSD.integer))
        assert lit.value == "not-a-number"

    def test_gyear_is_temporal(self):
        lit = Literal("1984", datatype=str(XSD.gYear))
        assert lit.is_temporal
        assert lit.value == 1984

    def test_equality_includes_datatype(self):
        assert Literal("1", datatype=str(XSD.integer)) != Literal("1")
        assert Literal("a") == Literal("a")

    def test_numeric_ordering(self):
        assert Literal(2) < Literal(10)
        assert not Literal(10) < Literal(2)

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_escapes(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_n3_lang(self):
        assert Literal("chat", lang="fr").n3() == '"chat"@fr'

    def test_n3_typed(self):
        assert Literal(5).n3() == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_hash_consistent_with_eq(self):
        assert hash(Literal(7)) == hash(Literal("7", datatype=str(XSD.integer)))


class TestVariable:
    def test_bare_name_required(self):
        with pytest.raises(ValueError):
            Variable("?x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"


class TestTriple:
    def test_n3_line(self):
        t = Triple(IRI("http://x.org/s"), IRI("http://x.org/p"), Literal("o"))
        assert t.n3() == '<http://x.org/s> <http://x.org/p> "o" .'

    def test_named_fields(self):
        t = Triple(IRI("http://x.org/s"), IRI("http://x.org/p"), Literal("o"))
        assert t.subject == "http://x.org/s"
        assert t.object == Literal("o")


class TestTermSortKey:
    def test_order_bnode_iri_literal(self):
        terms = [Literal("z"), IRI("http://x.org/a"), BNode("b")]
        ordered = sorted(terms, key=term_sort_key)
        assert isinstance(ordered[0], BNode)
        assert isinstance(ordered[1], IRI)
        assert isinstance(ordered[2], Literal)

    def test_numeric_literals_sort_by_value(self):
        values = [Literal(10), Literal(2), Literal(3.5)]
        ordered = sorted(values, key=term_sort_key)
        assert [l.value for l in ordered] == [2, 3.5, 10]

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            term_sort_key("plain string")
