"""W3C result serializations: SPARQL results JSON, CSV, TSV."""

import json

import pytest

from repro.rdf.terms import BNode, IRI, Literal, Variable, XSD_STRING
from repro.sparql.results import (
    SelectResult,
    ask_to_sparql_json,
    iter_sparql_json,
    parse_sparql_json,
    term_from_json,
    term_to_json,
    to_csv,
    to_sparql_json,
    to_tsv,
)

S, NAME, AGE = Variable("s"), Variable("name"), Variable("age")


def sample_result() -> SelectResult:
    return SelectResult(
        [S, NAME, AGE],
        [
            {
                S: IRI("http://example.org/alice"),
                NAME: Literal("Alice"),
                AGE: Literal(30),
            },
            {
                S: BNode("b0"),
                NAME: Literal("Bob", lang="en"),
                # age unbound in this row
            },
        ],
    )


class TestTermJson:
    def test_iri(self):
        assert term_to_json(IRI("http://example.org/x")) == {
            "type": "uri", "value": "http://example.org/x",
        }

    def test_plain_literal_omits_xsd_string(self):
        encoded = term_to_json(Literal("hello"))
        assert encoded == {"type": "literal", "value": "hello"}

    def test_language_literal(self):
        assert term_to_json(Literal("bonjour", lang="fr")) == {
            "type": "literal", "value": "bonjour", "xml:lang": "fr",
        }

    def test_typed_literal(self):
        encoded = term_to_json(Literal(42))
        assert encoded["datatype"].endswith("integer")
        assert encoded["value"] == "42"

    def test_bnode(self):
        assert term_to_json(BNode("b1")) == {"type": "bnode", "value": "b1"}

    @pytest.mark.parametrize("term", [
        IRI("http://example.org/x"),
        Literal("plain"),
        Literal("bonjour", lang="fr"),
        Literal(42),
        Literal(2.5),
        Literal(True),
        BNode("b1"),
    ])
    def test_round_trip(self, term):
        assert term_from_json(term_to_json(term)) == term

    def test_legacy_typed_literal_spelling(self):
        term = term_from_json({
            "type": "typed-literal", "value": "7",
            "datatype": "http://www.w3.org/2001/XMLSchema#integer",
        })
        assert term == Literal(7)

    def test_explicit_xsd_string_datatype(self):
        term = term_from_json({
            "type": "literal", "value": "x", "datatype": str(XSD_STRING),
        })
        assert term == Literal("x")


class TestSparqlJson:
    def test_document_shape(self):
        document = json.loads(to_sparql_json(sample_result()))
        assert document["head"]["vars"] == ["s", "name", "age"]
        bindings = document["results"]["bindings"]
        assert len(bindings) == 2
        assert bindings[0]["s"]["type"] == "uri"
        assert bindings[0]["age"]["value"] == "30"
        assert "age" not in bindings[1]  # unbound vars are simply absent

    def test_round_trip(self):
        result = sample_result()
        parsed = parse_sparql_json(to_sparql_json(result))
        assert parsed.variables == result.variables
        assert parsed.rows == result.rows

    def test_extra_metadata_member(self):
        document = json.loads(
            to_sparql_json(sample_result(), extra={"approximate": True})
        )
        assert document["x-repro"] == {"approximate": True}

    def test_streaming_matches_materialized(self):
        result = sample_result()
        streamed = "".join(iter_sparql_json(result.variables, iter(result.rows)))
        assert json.loads(streamed) == json.loads(to_sparql_json(result))

    def test_ask_documents(self):
        assert json.loads(ask_to_sparql_json(True))["boolean"] is True
        parsed = parse_sparql_json(ask_to_sparql_json(False))
        assert parsed is False


class TestCsvTsv:
    def test_csv_values_and_quoting(self):
        result = SelectResult(
            [NAME],
            [{NAME: Literal('say "hi", ok')}, {NAME: Literal("plain")}],
        )
        text = to_csv(result)
        lines = text.split("\r\n")
        assert lines[0] == "name"
        assert lines[1] == '"say ""hi"", ok"'
        assert lines[2] == "plain"

    def test_csv_unbound_is_empty_field(self):
        text = to_csv(sample_result())
        rows = text.strip().split("\r\n")
        assert rows[2].endswith(",")  # trailing empty age column

    def test_tsv_uses_n3_forms(self):
        text = to_tsv(sample_result())
        lines = text.splitlines()
        assert lines[0] == "?s\t?name\t?age"
        assert "<http://example.org/alice>" in lines[1]
        assert '"Bob"@en' in lines[2]

    def test_csv_plain_values_not_n3(self):
        text = to_csv(sample_result())
        assert "<http://example.org/alice>" not in text
        assert "http://example.org/alice" in text


# ---------------------------------------------------------------------------
# The column-wise encoders behind every format (issue 19)
# ---------------------------------------------------------------------------

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.rdf.terms import XSD_INTEGER
from repro.sparql import results
from repro.sparql.results import (
    BLOCK_ROWS,
    _json_term,
    csv_document,
    json_document,
    row_blocks,
    tsv_document,
)
from tests.helpers import legacy_csv, legacy_json, legacy_tsv


def iter_csv(variables, rows):
    return csv_document(variables, row_blocks(variables, rows))


def iter_tsv(variables, rows):
    return tsv_document(variables, row_blocks(variables, rows))

_IRI_TEXT = st.text(
    st.characters(blacklist_characters='<>" \n\t', blacklist_categories=("Cs",)),
    min_size=1,
)
_TERMS = st.one_of(
    _IRI_TEXT.map(lambda text: IRI("http://example.org/" + text)),
    _IRI_TEXT.map(BNode),
    st.builds(
        Literal,
        st.text(),
        datatype=st.sampled_from(
            [None, XSD_STRING, XSD_INTEGER, "http://example.org/dt#é"]
        ),
    ),
    st.builds(Literal, st.text(), lang=st.sampled_from(["en", "fr-CA"])),
    st.integers().map(Literal),
    st.floats().map(Literal),
    st.booleans().map(Literal),
)


@given(term=_TERMS)
def test_json_fragment_is_what_json_dumps_makes_of_the_term(term):
    fragment = _json_term(term)
    assert json.loads(fragment) == term_to_json(term)
    assert fragment == json.dumps(term_to_json(term))


_ROWS = st.lists(
    st.dictionaries(st.sampled_from([S, NAME, AGE]), _TERMS, max_size=3),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS, duplicate=st.booleans())
def test_row_forms_keep_their_bytes(rows, duplicate):
    variables = [S, NAME, AGE] + ([NAME] if duplicate else [])
    assert "".join(iter_sparql_json(variables, rows)) == legacy_json(variables, rows)
    assert "".join(iter_csv(variables, rows)) == legacy_csv(variables, rows)
    assert "".join(iter_tsv(variables, rows)) == legacy_tsv(variables, rows)


def test_documents_are_one_piece_per_block_with_head_and_tail_attached():
    rows = [
        {S: IRI(f"http://example.org/{i}")} | ({AGE: Literal(i)} if i % 3 else {})
        for i in range(2 * BLOCK_ROWS + 5)
    ]
    variables = [S, NAME, AGE]
    pieces = list(iter_sparql_json(variables, iter(rows), extra={"k": 1}))
    assert len(pieces) == 3
    assert pieces[0].startswith('{"head": ') and pieces[-1].endswith("]}}")
    assert "".join(pieces) == legacy_json(variables, rows, extra={"k": 1})
    assert len(list(iter_csv(variables, rows))) == 3
    # no rows at all: head and tail are one piece
    assert list(iter_sparql_json(variables, [])) == [legacy_json(variables, [])]
    assert list(iter_csv([S], [])) == ["s\r\n"]
    # no variables at all (SELECT * over no bindings): one empty object a row
    assert "".join(iter_sparql_json([], [{}, {}])) == legacy_json([], [{}, {}])
    assert "".join(iter_csv([], [{}, {}])) == "\r\n\r\n\r\n"


def test_a_piece_is_only_yielded_once_its_successor_exists():
    pulled = []

    def blocks():
        for block in row_blocks([S], [{S: BNode("a")}] * (BLOCK_ROWS + 1)):
            pulled.append(block[1])
            yield block

    with mock.patch.object(results, "_json_term", wraps=_json_term) as encoded:
        pieces = json_document([S], blocks())
        next(pieces)
        # the first piece waited for block two, which is not encoded yet
        assert pulled == [BLOCK_ROWS, 1] and encoded.call_count == BLOCK_ROWS
        assert next(pieces).endswith("]}}")
    assert next(pieces, None) is None
    lines = csv_document([S], blocks())
    next(lines)
    assert pulled == [BLOCK_ROWS, 1, BLOCK_ROWS, 1]


def test_columnar_result_decodes_rows_once_and_serializes_without_them():
    from repro.sparql.physical import Batch
    from repro.store.dictionary import TermDictionary
    import numpy as np

    dictionary = TermDictionary()
    ids = [dictionary.encode(t) for t in (IRI("http://example.org/a"), Literal(1), Literal("x"))]
    batches = [
        Batch({S: np.array([ids[0], ids[0]]), AGE: np.array([ids[1], ids[2]])}, 2),
        Batch({S: np.array([ids[0]]), AGE: np.array([ids[1]])}, 1),
    ]
    result = SelectResult.from_batches([S, NAME, AGE], batches, dictionary)
    assert len(result) == 3 and bool(result)
    rows = [
        {S: IRI("http://example.org/a"), AGE: Literal(1)},
        {S: IRI("http://example.org/a"), AGE: Literal("x")},
        {S: IRI("http://example.org/a"), AGE: Literal(1)},
    ]
    by_rows = SelectResult([S, NAME, AGE], rows)
    assert to_sparql_json(result) == to_sparql_json(by_rows)
    assert to_csv(result) == to_csv(by_rows)
    assert to_tsv(result) == to_tsv(by_rows)
    assert result.to_table() == by_rows.to_table()
    assert result.to_table(max_rows=2) == by_rows.to_table(max_rows=2)
    assert result._columns.rows is None
    assert result.rows == rows and result.rows is result.rows
    assert result.column("age") == [Literal(1), Literal("x"), Literal(1)]
    empty = SelectResult.from_batches([S], [], dictionary)
    assert len(empty) == 0 and not empty and empty.rows == []
    assert to_sparql_json(empty) == to_sparql_json(SelectResult([S], []))


def test_a_cache_hit_shares_the_columnar_backing():
    from repro.rdf.terms import Triple
    from repro.sparql.cached import CachedQueryEngine
    from repro.store.memory import MemoryStore

    store = MemoryStore(
        Triple(IRI(f"http://example.org/{i}"), IRI("http://example.org/p"), Literal(i))
        for i in range(5)
    )
    engine = CachedQueryEngine(store)
    query = "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }"
    computed, hit = engine.query(query), engine.query(query)
    assert hit.plan.cached and not computed.plan.cached
    assert computed._columns is hit._columns and hit._columns.rows is None
    rows = hit.rows  # decoded for the hit...
    assert len(rows) == 5 and computed.rows is rows  # ...and for every re-wrap
    assert engine.query(query).rows is rows


# ---------------------------------------------------------------------------
# Id columns are encoded by one gather from the dictionary's cell columns
# ---------------------------------------------------------------------------

import sys
import threading

import numpy as np

from hypothesis import seed

from repro.sparql.physical import Batch
from repro.sparql.termtable import UNBOUND, TermTable
from repro.store.dictionary import TermDictionary


def _id_backed(variables, ids, cuts, dictionary):
    """``?s ?name`` id pairs as a result of batches cut at ``cuts``."""
    bounds = [0, *sorted(cut for cut in cuts if cut < len(ids)), len(ids)]
    return SelectResult.from_batches(variables, [
        Batch({S: ids[start:stop, 0], NAME: ids[start:stop, 1]}, stop - start)
        for start, stop in zip(bounds, bounds[1:])
    ], dictionary)


def _served(result, extra=None):
    return (to_sparql_json(result, extra=extra), to_csv(result), to_tsv(result),
            result.to_table(max_rows=None), result.to_table(max_rows=3))


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(st.tuples(_TERMS, _TERMS), min_size=1, max_size=12),
    cuts=st.sets(st.integers(1, 11)),
    duplicate=st.booleans(),
    extra=st.sampled_from([None, {"approximate": True, "bounds": {"n": 0.5}}]),
)
def test_id_backed_and_row_backed_answers_are_the_same_bytes(
    pairs, cuts, duplicate, extra
):
    # ?age is bound by no row; a duplicate header variable is one member
    variables = [S, NAME, AGE] + ([NAME] if duplicate else [])
    dictionary = TermDictionary()
    ids = np.array([[dictionary.encode(term) for term in pair] for pair in pairs])
    by_rows = SelectResult(variables, [
        {S: dictionary.decode(s), NAME: dictionary.decode(name)}
        for s, name in ids.tolist()
    ])
    expected = _served(by_rows, extra)
    assert expected[0] == legacy_json(variables, by_rows.rows, extra=extra)
    by_ids = _id_backed(variables, ids, cuts, dictionary)
    assert _served(by_ids, extra) == expected  # cells made
    assert _served(by_ids, extra) == expected  # cells gathered
    assert by_ids._columns.rows is None


def test_ids_added_after_a_column_exists_get_cells():
    dictionary = TermDictionary()
    first = [dictionary.encode(term) for term in (IRI("http://example.org/a"), Literal(1))]
    assert dictionary.cells(np.array(first), _json_term) == [
        _json_term(IRI("http://example.org/a")), _json_term(Literal(1))]
    column, encoded = dictionary._cells[_json_term]
    later = dictionary.encode(Literal("new", lang="en"))
    assert dictionary.cells(np.array([later, first[1], later]), _json_term) == [
        _json_term(Literal("new", lang="en")), _json_term(Literal(1)),
        _json_term(Literal("new", lang="en"))]
    # grown copy-on-write: whoever holds the old column keeps a valid one...
    assert column.tolist() == [_json_term(IRI("http://example.org/a")),
                               _json_term(Literal(1))] and encoded.all()
    # ...and the new one covers the new id
    wider, grown = dictionary._cells[_json_term]
    assert len(wider) >= 3 and grown[later]
    assert wider[later] == _json_term(Literal("new", lang="en"))


_ENCODERS = [_json_term, results._csv_field, results._tsv_field]


@seed(3707)
@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(_TERMS, max_size=8),
    later=st.lists(_TERMS, min_size=1, max_size=6),
    computed=st.lists(_TERMS, max_size=4),
    draws=st.lists(st.tuples(st.sampled_from("scu"), st.integers(0, 99)),
                   max_size=24),
    encode=st.sampled_from(_ENCODERS),
)
def test_a_gather_is_each_ids_encoded_term(first, later, computed, draws,
                                           encode):
    dictionary = TermDictionary()

    def gathered(ids):
        ids = np.array(ids, dtype=np.int64)
        return dictionary.cells(ids, encode) == [
            encode(dictionary.decode(i)) for i in ids.tolist()]

    ids = [dictionary.encode(term) for term in first]
    assert gathered([]) and gathered(ids) and gathered(ids[::-1] * 2)
    # ids assigned after the column exists, gathered with repeats
    fresh = [dictionary.encode(term) for term in later]
    assert gathered(fresh + ids + fresh[:1]) and gathered([])
    # store, computed and unbound ids through a plan's term table
    table = TermTable(dictionary)
    local = [table.id(term) for term in computed]
    pools = {"s": ids + fresh, "c": local, "u": [UNBOUND]}
    mixed = np.array([pools[kind][index % len(pools[kind])]
                      for kind, index in draws if pools[kind]], dtype=np.int64)
    assert table.cells(mixed, encode) == [
        "" if i == UNBOUND else encode(table.decode(i)) for i in mixed.tolist()]


def test_eight_threads_gather_overlapping_columns_while_a_writer_adds_terms():
    dictionary = TermDictionary()
    terms = [
        kind(index)
        for index in range(300)
        for kind in (
            lambda i: IRI(f"http://example.org/{i}"),
            lambda i: Literal(f'label "{i}",\n'),
            lambda i: Literal(i / 4),
        )
    ]
    ids = np.array([dictionary.encode(term) for term in terms]).reshape(-1, 2)
    windows = [(index * 40, index * 40 + 200) for index in range(8)]  # overlapping
    reference = [
        _served(SelectResult([S, NAME], [
            {S: dictionary.decode(s), NAME: dictionary.decode(name)}
            for s, name in ids[start:stop].tolist()
        ]))
        for start, stop in windows
    ]
    failures: list[str] = []
    stop = threading.Event()

    def reader(index: int) -> None:
        start, end = windows[index]
        for _ in range(25):
            result = _id_backed([S, NAME], ids[start:end], {50, 120}, dictionary)
            if _served(result) != reference[index]:
                failures.append(f"window {index}")
                return

    def writer() -> None:
        count = 0
        while not stop.is_set():
            dictionary.encode(Literal(f"written {count}"))
            count += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        growing = threading.Thread(target=writer)
        growing.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        growing.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [growing])
    assert not failures, failures
    assert len(dictionary) > len(terms)  # the columns were extended meanwhile
