"""Unit and property tests for the N-Triples parser/serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf import (
    BNode,
    IRI,
    Literal,
    NTriplesError,
    Triple,
    XSD,
    parse_ntriples,
    serialize_ntriples,
)


class TestParseLine:
    def test_simple_iri_triple(self):
        (t,) = parse_ntriples("<http://x.org/s> <http://x.org/p> <http://x.org/o> .")
        assert t == Triple(IRI("http://x.org/s"), IRI("http://x.org/p"), IRI("http://x.org/o"))

    def test_plain_literal(self):
        (t,) = parse_ntriples('<http://x.org/s> <http://x.org/p> "hello" .')
        assert t.object == Literal("hello")

    def test_typed_literal(self):
        doc = '<http://x.org/s> <http://x.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        (t,) = parse_ntriples(doc)
        assert t.object == Literal(42)
        assert t.object.value == 42

    def test_lang_literal(self):
        (t,) = parse_ntriples('<http://x.org/s> <http://x.org/p> "chat"@fr .')
        assert t.object == Literal("chat", lang="fr")

    def test_bnode_subject_and_object(self):
        (t,) = parse_ntriples("_:a <http://x.org/p> _:b .")
        assert t.subject == BNode("a")
        assert t.object == BNode("b")

    def test_escaped_quotes_and_newline(self):
        (t,) = parse_ntriples('<http://x.org/s> <http://x.org/p> "say \\"hi\\"\\n" .')
        assert t.object.lexical == 'say "hi"\n'

    def test_unicode_escape(self):
        (t,) = parse_ntriples('<http://x.org/s> <http://x.org/p> "\\u00e9" .')
        assert t.object.lexical == "é"

    def test_long_unicode_escape(self):
        (t,) = parse_ntriples('<http://x.org/s> <http://x.org/p> "\\U0001F600" .')
        assert t.object.lexical == "\U0001f600"

    def test_comments_and_blank_lines_skipped(self):
        doc = "\n# a comment\n<http://x.org/s> <http://x.org/p> <http://x.org/o> .\n\n"
        assert len(list(parse_ntriples(doc))) == 1

    def test_trailing_comment_allowed(self):
        doc = "<http://x.org/s> <http://x.org/p> <http://x.org/o> . # note"
        assert len(list(parse_ntriples(doc))) == 1

    def test_malformed_raises_with_line_number(self):
        doc = "<http://x.org/s> <http://x.org/p> <http://x.org/o> .\nnot a triple"
        with pytest.raises(NTriplesError, match="line 2"):
            list(parse_ntriples(doc))

    def test_missing_dot_raises(self):
        with pytest.raises(NTriplesError):
            list(parse_ntriples("<http://x.org/s> <http://x.org/p> <http://x.org/o>"))


class TestIriInterning:
    """``parse_ntriples`` builds each distinct IRI text once per call."""

    DOC = (
        "<http://x.org/s> <http://x.org/p> <http://x.org/o> .\n"
        "<http://x.org/o> <http://x.org/p> <http://x.org/s> .\n"
        '<http://x.org/s> <http://x.org/p> "http://x.org/o" .\n'
    )

    def test_repeated_iris_are_one_object(self):
        first, second, third = parse_ntriples(self.DOC)
        assert first.subject is second.object is third.subject
        assert first.predicate is second.predicate
        assert type(third.object) is Literal  # same text, not an IRI

    def test_same_triples_as_line_by_line(self):
        from repro.rdf.ntriples import parse_ntriples_line

        lines = self.DOC.splitlines()
        assert list(parse_ntriples(self.DOC)) == [
            parse_ntriples_line(line) for line in lines
        ]

    def test_typed_literals_share_their_datatype(self):
        from repro.rdf.ntriples import parse_ntriples_line

        integer = "http://www.w3.org/2001/XMLSchema#integer"
        lines = [
            f'<http://x.org/s> <http://x.org/p> "1"^^<{integer}> .',
            '<http://x.org/s> <http://x.org/q> "x"^^<http://x.org/t\\u0041> .',
            f'<http://x.org/o> <http://x.org/p> "2"^^<{integer}> .',
            '<http://x.org/o> <http://x.org/q> "y"^^<http://x.org/t\\u0041> .',
        ]
        one, two, three, four = parse_ntriples("\n".join(lines))
        assert one.object.datatype is three.object.datatype == integer
        assert two.object.datatype is four.object.datatype == "http://x.org/tA"
        assert type(one.object.datatype) is str  # a datatype, not an IRI term
        # the one-line parser builds the same terms, each of its own
        singles = [parse_ntriples_line(line) for line in lines]
        assert singles == [one, two, three, four]
        assert [type(t.object.datatype) for t in singles] == [str] * 4

    def test_full_memo_is_dropped_not_grown(self, monkeypatch):
        from repro.rdf import ntriples

        monkeypatch.setattr(ntriples, "_IRI_MEMO_LIMIT", 4)
        doc = "".join(
            f"<http://x.org/s{i % 7}> <http://x.org/p> <http://x.org/o{i}> .\n"
            for i in range(40)
        )
        parsed = list(parse_ntriples(doc))
        assert [t.subject for t in parsed] == [
            IRI(f"http://x.org/s{i % 7}") for i in range(40)
        ]
        assert [t.object for t in parsed] == [
            IRI(f"http://x.org/o{i}") for i in range(40)
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "<> <http://x.org/p> <http://x.org/o> .",
            "<http://x.org/a\\u0020b> <http://x.org/p> <http://x.org/o> .",
            "<http://x.org/s> <http://x.org/p> <http://x.org/\\u003Co> .",
        ],
    )
    def test_bad_iri_after_unescape_reports_the_line(self, bad):
        doc = "<http://x.org/s> <http://x.org/p> <http://x.org/o> .\n" + bad
        with pytest.raises(NTriplesError, match="line 2"):
            list(parse_ntriples(doc))


class TestSerialize:
    def test_round_trip_document(self):
        triples = [
            Triple(IRI("http://x.org/s"), IRI("http://x.org/p"), Literal("v")),
            Triple(IRI("http://x.org/s"), IRI("http://x.org/q"), Literal(3)),
            Triple(BNode("n"), IRI("http://x.org/p"), Literal("x", lang="en")),
        ]
        doc = serialize_ntriples(triples)
        assert list(parse_ntriples(doc)) == triples

    def test_sorted_output_is_deterministic(self):
        a = Triple(IRI("http://x.org/b"), IRI("http://x.org/p"), Literal("1"))
        b = Triple(IRI("http://x.org/a"), IRI("http://x.org/p"), Literal("2"))
        assert serialize_ntriples([a, b], sort=True) == serialize_ntriples([b, a], sort=True)

    def test_empty_input(self):
        assert serialize_ntriples([]) == ""


# -- property-based round-trip ---------------------------------------------

_iri_local = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12
)
_iris = _iri_local.map(lambda s: IRI("http://example.org/" + s))
_bnodes = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_]{0,8}", fullmatch=True).map(BNode)
_plain_text = st.text(max_size=40)
_literals = st.one_of(
    _plain_text.map(Literal),
    st.integers(min_value=-(10**9), max_value=10**9).map(Literal),
    st.booleans().map(Literal),
    _plain_text.map(lambda s: Literal(s, lang="en")),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda f: Literal(str(f), datatype=str(XSD.double))
    ),
)
_subjects = st.one_of(_iris, _bnodes)
_objects = st.one_of(_iris, _bnodes, _literals)
_triples = st.builds(Triple, _subjects, _iris, _objects)


@given(st.lists(_triples, max_size=25))
def test_ntriples_round_trip_property(triples):
    """serialize → parse is the identity on any well-formed triple list."""
    assert list(parse_ntriples(serialize_ntriples(triples))) == triples
