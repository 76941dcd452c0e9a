"""Unit and property tests for dictionary encoding and the term codec."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.rdf import BNode, IRI, Literal, Triple, XSD
from repro.store import TermDictionary, decode_term, encode_term


class TestTermCodec:
    def test_iri_round_trip(self):
        term = IRI("http://example.org/thing")
        assert decode_term(encode_term(term)) == term

    def test_bnode_round_trip(self):
        term = BNode("n42")
        decoded = decode_term(encode_term(term))
        assert decoded == term
        assert isinstance(decoded, BNode)

    def test_plain_literal_round_trip(self):
        term = Literal("hello world")
        assert decode_term(encode_term(term)) == term

    def test_typed_literal_round_trip(self):
        term = Literal(42)
        decoded = decode_term(encode_term(term))
        assert decoded == term
        assert decoded.value == 42

    def test_lang_literal_round_trip(self):
        term = Literal("bonjour", lang="fr")
        decoded = decode_term(encode_term(term))
        assert decoded == term
        assert decoded.lang == "fr"

    def test_unicode_round_trip(self):
        term = Literal("δοκιμή ✓")
        assert decode_term(encode_term(term)) == term

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            encode_term("bare string")

    def test_rejects_unknown_kind_byte(self):
        with pytest.raises(ValueError):
            decode_term(b"\x63\x00\x00\x00\x00")


class TestTermDictionary:
    def test_ids_are_dense_from_zero(self):
        d = TermDictionary()
        assert d.encode(IRI("http://x.org/a")) == 0
        assert d.encode(IRI("http://x.org/b")) == 1
        assert len(d) == 2

    def test_encode_is_idempotent(self):
        d = TermDictionary()
        first = d.encode(Literal("v"))
        second = d.encode(Literal("v"))
        assert first == second
        assert len(d) == 1

    def test_lookup_readonly(self):
        d = TermDictionary()
        assert d.lookup(IRI("http://x.org/a")) is None
        assert len(d) == 0

    def test_decode_inverse_of_encode(self):
        d = TermDictionary()
        term = Literal("x", lang="en")
        assert d.decode(d.encode(term)) == term

    def test_triple_round_trip(self):
        d = TermDictionary()
        t = Triple(IRI("http://x.org/s"), IRI("http://x.org/p"), Literal(5))
        assert d.decode_triple(d.encode_triple(t)) == t

    def test_contains(self):
        d = TermDictionary()
        d.encode(IRI("http://x.org/a"))
        assert IRI("http://x.org/a") in d
        assert IRI("http://x.org/b") not in d

    def test_terms_in_id_order(self):
        d = TermDictionary()
        terms = [IRI("http://x.org/b"), Literal(1), BNode("z")]
        for term in terms:
            d.encode(term)
        assert list(d.terms()) == terms

    def test_dump_and_load(self):
        d = TermDictionary()
        terms = [IRI("http://x.org/a"), Literal("v", lang="en"), Literal(7), BNode("n")]
        for term in terms:
            d.encode(term)
        buffer = io.BytesIO()
        d.dump(buffer)
        buffer.seek(0)
        loaded = TermDictionary.load(buffer)
        assert list(loaded.terms()) == terms
        assert loaded.lookup(Literal(7)) == d.lookup(Literal(7))


def dictionary_of(terms) -> TermDictionary:
    dictionary = TermDictionary()
    for term in terms:
        dictionary.encode(term)
    return dictionary


# -- property-based codec round-trip ----------------------------------------

_terms = st.one_of(
    st.from_regex(r"[a-z][a-z0-9]{0,10}", fullmatch=True).map(
        lambda s: IRI("http://example.org/" + s)
    ),
    st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_]{0,6}", fullmatch=True).map(BNode),
    st.text(max_size=30).map(Literal),
    st.integers(-(10**6), 10**6).map(Literal),
    st.text(max_size=10).map(lambda s: Literal(s, lang="de")),
    st.text(max_size=10).map(lambda s: Literal(s, datatype=str(XSD.token))),
)


@given(_terms)
def test_codec_round_trip_property(term):
    decoded = decode_term(encode_term(term))
    assert decoded == term
    assert type(decoded) is type(term)


@given(st.lists(_terms, max_size=30))
def test_dictionary_dump_load_property(terms):
    d = dictionary_of(terms)
    buffer = io.BytesIO()
    d.dump(buffer)
    buffer.seek(0)
    assert list(TermDictionary.load(buffer).terms()) == list(d.terms())


class TestNumericValueColumn:
    def test_kinds_follow_the_expression_evaluators_notion_of_a_number(self):
        from repro.store.dictionary import VALUE_FLOAT, VALUE_INT, VALUE_OTHER

        terms = [
            Literal(7),
            Literal(2.5),
            Literal("12", datatype=str(XSD.decimal)),
            Literal("007", datatype=str(XSD.integer)),
            Literal("7"),  # a plain string
            Literal(True),
            Literal("abc", datatype=str(XSD.integer)),  # ill-typed
            Literal("NaN", datatype=str(XSD.double)),
            Literal(2**53 + 1),  # not exact in float64
            Literal("INF", datatype=str(XSD.double)),
            IRI("http://example.org/x"),
            BNode("b"),
        ]
        dictionary = dictionary_of(terms)
        values, kinds = dictionary.numeric_columns()
        assert kinds.tolist() == [
            VALUE_INT, VALUE_FLOAT, VALUE_FLOAT, VALUE_INT,
            VALUE_OTHER, VALUE_OTHER, VALUE_OTHER, VALUE_OTHER, VALUE_OTHER,
            VALUE_FLOAT, VALUE_OTHER, VALUE_OTHER,
        ]
        assert values[:4].tolist() == [7.0, 2.5, 12.0, 7.0]
        assert values[9] == float("inf")

    def test_built_lazily_once_and_extended_when_the_dictionary_grows(self):
        dictionary = dictionary_of([Literal(1), Literal(2)])
        first = dictionary.numeric_columns()
        assert dictionary.numeric_columns() is first  # no rebuild, no copy
        dictionary.encode(Literal(3.5))
        values, kinds = dictionary.numeric_columns()
        assert values.tolist() == [1.0, 2.0, 3.5]
        assert first[0].tolist() == [1.0, 2.0]  # published arrays never change

    def test_survives_a_dump_load_round_trip(self):
        dictionary = dictionary_of([IRI("http://e/x"), Literal(4)])
        buffer = io.BytesIO()
        dictionary.dump(buffer)
        buffer.seek(0)
        values, kinds = TermDictionary.load(buffer).numeric_columns()
        assert values.tolist() == [0.0, 4.0] and kinds.tolist() == [0, 1]
