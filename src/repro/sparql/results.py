"""SELECT result representation and wire serializations.

A :class:`SelectResult` is an ordered table of solution rows — the object
every downstream layer consumes: the facet browser counts over it, the
recommendation engine profiles its columns, the LDVM pipeline binds it to
visual channels.

The module also implements the W3C interchange formats a SPARQL endpoint
negotiates (and a client parses back):

* SPARQL 1.1 Query Results JSON (``application/sparql-results+json``) —
  :func:`to_sparql_json` / :func:`parse_sparql_json`, with term-level
  :func:`term_to_json` / :func:`term_from_json`;
* SPARQL 1.1 Query Results CSV and TSV (``text/csv``,
  ``text/tab-separated-values``) — :func:`to_csv` / :func:`to_tsv`.

**Blocks, not rows.** Between the engine and the socket a SELECT answer is
a sequence of id batches (:class:`~repro.sparql.physical.Batch`), never
decoded: :func:`batch_block` makes a batch a *block* — ``(columns, count,
dictionary)``, an id column per header variable — and each format's one
column-wise encoder (:func:`json_document`, :func:`csv_document`,
:func:`tsv_document`, :meth:`SelectResult.to_table`) makes an id column's
text with one gather from the dictionary's column of that format's cells
(``TermDictionary.cells``): a term is encoded once per format, not once per
response. A block of terms (rows gathered by :func:`row_blocks`) maps the
same encoder over its terms; row consumers decode (:func:`decode_block`).

A document generator yields its head together with the first block, then
one string per block, then the last block together with the tail; a block
is only encoded, and its piece yielded, once its successor exists. The
serving layer (:mod:`repro.server`) writes one HTTP chunk per piece, so
first-row latency stays flat on arbitrarily large results and the final
piece leaves only after the block source — the engine — has finished.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from ..rdf.terms import BNode, IRI, Literal, Term, Variable, XSD_STRING
from .termtable import UNBOUND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.dictionary import TermDictionary
    from .physical import Batch, EvalStats, ExplainNode

__all__ = [
    "BLOCK_ROWS",
    "SelectResult",
    "term_to_json",
    "term_from_json",
    "binding_to_json",
    "to_sparql_json",
    "ask_to_sparql_json",
    "parse_sparql_json",
    "to_csv",
    "to_tsv",
    "iter_sparql_json",
    "json_document",
    "csv_document",
    "tsv_document",
    "row_blocks",
    "batch_block",
    "decode_block",
    "block_rows",
]

#: Rows :func:`row_blocks` gathers into one block (the id-batch path takes
#: the engine's batches as they come: 256 rows, doubling).
BLOCK_ROWS = 256

#: One block of a SELECT answer: a column per header variable (ids of the
#: dictionary, or terms when it is None), the row count, the dictionary.
Block = tuple["list[np.ndarray | list[Term | None] | None]", int, "TermDictionary | None"]


def row_blocks(
    variables: list[Variable],
    rows: Iterable[dict[Variable, Term]],
    size: int = BLOCK_ROWS,
) -> Iterator[Block]:
    """Solution rows as blocks of up to ``size`` rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, size)):
        yield [[row.get(v) for row in chunk] for v in variables], len(chunk), None


def batch_block(
    variables: list[Variable],
    columns: "dict[Variable, np.ndarray | list[Term | None]]",
    count: int,
    dictionary: "TermDictionary | None",
) -> Block:
    """The block of one batch, its columns in header order, undecoded."""
    return [columns.get(v) for v in variables], count, dictionary


def decode_block(
    variables: list[Variable],
    columns: "dict[Variable, np.ndarray]",
    count: int,
    dictionary: "TermDictionary",
) -> Block:
    """The block of one batch: each header variable's id column decoded."""
    decode = dictionary.decode_batch
    return [decode(columns[v]) if v in columns else None for v in variables], count, None


def block_rows(variables: list[Variable], block: Block) -> list[dict[Variable, Term]]:
    """A block of terms as solution rows (unbound variables omitted)."""
    columns, count, _ = block
    names = [v for v, column in zip(variables, columns) if column is not None]
    if not names:
        return [{} for _ in range(count)]
    return [
        {v: term for v, term in zip(names, cells) if term is not None}
        for cells in zip(*(column for column in columns if column is not None))
    ]


class _Columns:
    """A result held column-wise: one int64 id column per variable, the
    dictionary (a plan's term table) they decode through, plus the rows
    once somebody asked for them. Shared between a result and its
    re-wraps, so the rows are built at most once."""

    __slots__ = ("columns", "count", "dictionary", "rows")

    def __init__(self, columns, count, dictionary) -> None:
        self.columns = columns
        self.count = count
        self.dictionary = dictionary
        self.rows: list[dict[Variable, Term]] | None = None


class SelectResult:
    """An immutable table of SPARQL solutions.

    ``stats`` holds the per-query execution counters and ``plan`` the
    EXPLAIN ANALYZE tree of the run that produced this result (both
    ``None`` for results built by hand). ``plan_digest`` is the stable
    digest of the optimized logical plan — the result-cache key the
    engine computed anyway, carried here so the serving layer and the
    query log never re-derive it from query text.

    A result is backed by its rows, or — :meth:`from_batches`, what the
    engine builds — by id columns and the dictionary they decode through. ``rows`` of a columnar result are
    decoded on first access and kept; ``len``, :meth:`blocks` and with it
    every serializer work from the columns and leave them as they are, so
    a cached page costs three int64 columns until somebody asks for dicts.
    """

    def __init__(
        self,
        variables: list[Variable],
        rows: list[dict[Variable, Term]],
        stats: "EvalStats | None" = None,
        plan: "ExplainNode | None" = None,
        plan_digest: str | None = None,
    ) -> None:
        self.variables: list[Variable] = list(variables)
        self._rows: list[dict[Variable, Term]] | None = rows
        self._columns: _Columns | None = None
        self.stats = stats
        self.plan = plan
        self.plan_digest = plan_digest

    @classmethod
    def from_batches(
        cls,
        variables: list[Variable],
        batches: "list[Batch]",
        dictionary: "TermDictionary",
        stats: "EvalStats | None" = None,
        plan: "ExplainNode | None" = None,
        plan_digest: str | None = None,
    ) -> "SelectResult":
        """The answer made of ``batches``, kept column-wise.

        Every batch of one plan carries the same variables, so each becomes
        one concatenated (and thereby compact: batches are views into store
        arrays) column.
        """
        result = cls(variables, None, stats, plan, plan_digest)  # type: ignore[arg-type]
        columns = {
            variable: np.concatenate([batch.columns[variable] for batch in batches])
            for variable in (batches[0].columns if batches else ())
        }
        result._columns = _Columns(
            columns, sum(batch.count for batch in batches), dictionary
        )
        return result

    @property
    def rows(self) -> list[dict[Variable, Term]]:
        held = self._columns
        if held is None:
            return self._rows
        if held.rows is None:
            held.rows = block_rows(self.variables, decode_block(
                self.variables, held.columns, held.count, held.dictionary
            ))
        return held.rows

    def blocks(self) -> Iterator[Block]:
        """The answer as serializer blocks: its columns as they are held,
        without decoding them or building row dicts."""
        held = self._columns
        if held is None:
            return row_blocks(self.variables, self.rows)
        return iter((
            batch_block(self.variables, held.columns, held.count, held.dictionary),
        ))

    def __len__(self) -> int:
        if self._columns is not None:
            return self._columns.count
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[Variable, Term]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: int) -> dict[Variable, Term]:
        return self.rows[index]

    def column(self, variable: str | Variable) -> list[Term | None]:
        """All values of one variable, ``None`` where unbound."""
        key = Variable(variable) if not isinstance(variable, Variable) else variable
        return [row.get(key) for row in self.rows]

    def values(self, variable: str | Variable) -> list[object]:
        """Native Python values of one variable (skips unbound rows)."""
        out: list[object] = []
        for term in self.column(variable):
            if term is None:
                continue
            out.append(term.value if isinstance(term, Literal) else term)
        return out

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as plain dicts with string keys and native values."""
        result = []
        for row in self.rows:
            entry: dict[str, object] = {}
            for variable in self.variables:
                term = row.get(variable)
                if term is None:
                    entry[str(variable)] = None
                elif isinstance(term, Literal):
                    entry[str(variable)] = term.value
                else:
                    entry[str(variable)] = str(term)
            result.append(entry)
        return result

    def to_table(self, max_rows: int | None = 20) -> str:
        """ASCII table rendering (the classic endpoint result view)."""
        headers = [f"?{v}" for v in self.variables]
        cells = list(islice(chain.from_iterable(
            _rows(*block, _render) for block in self.blocks()
        ), max_rows))  # no block past the one holding the last row shown
        widths = [max([len(header), *(len(row[i]) for row in cells)])
                  for i, header in enumerate(headers)]
        sep = "-+-".join("-" * w for w in widths)
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if max_rows is not None and len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SelectResult {len(self)} rows x {len(self.variables)} vars>"


def _render(term: Term) -> str:
    return term.lexical if isinstance(term, Literal) else str(term)


def _cells(
    column: "np.ndarray | list[Term | None]",
    dictionary: "TermDictionary | None",
    encode: Callable[[Term], str],
) -> list[str]:
    """One block column in one format: ``encode`` of each term, ``""`` where
    unbound — an id column's with one gather from the dictionary."""
    if dictionary is not None:
        return dictionary.cells(column, encode)
    return ["" if term is None else encode(term) for term in column]


def _rows(
    columns: "list[np.ndarray | list[Term | None] | None]",
    count: int,
    dictionary: "TermDictionary | None",
    encode: Callable[[Term], str],
) -> Iterable[tuple[str, ...]]:
    """A block row by row in one format."""
    if not columns:
        return [()] * count
    return zip(*(
        [""] * count if column is None else _cells(column, dictionary, encode)
        for column in columns
    ))


# --------------------------------------------------------------------------- #
# W3C SPARQL 1.1 Query Results JSON
# --------------------------------------------------------------------------- #


def term_to_json(term: Term) -> dict[str, str]:
    """One RDF term in the W3C results-JSON encoding.

    Plain ``xsd:string`` literals omit the datatype member, matching what
    every deployed endpoint emits.
    """
    if isinstance(term, IRI):
        return {"type": "uri", "value": str(term)}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": str(term)}
    if isinstance(term, Literal):
        record: dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.lang is not None:
            record["xml:lang"] = term.lang
        elif term.datatype and term.datatype != XSD_STRING:
            record["datatype"] = term.datatype
        return record
    raise TypeError(f"not an RDF term: {term!r}")


def term_from_json(record: dict[str, str]) -> Term:
    """Inverse of :func:`term_to_json` (accepts ``typed-literal`` legacy)."""
    kind = record.get("type")
    value = record.get("value", "")
    if kind == "uri":
        return IRI(value)
    if kind == "bnode":
        return BNode(value)
    if kind in ("literal", "typed-literal"):
        lang = record.get("xml:lang")
        if lang is not None:
            return Literal(value, lang=lang)
        return Literal(value, datatype=record.get("datatype"))
    raise ValueError(f"unknown term type in results JSON: {kind!r}")


def binding_to_json(
    variables: Iterable[Variable], row: dict[Variable, Term]
) -> dict[str, dict[str, str]]:
    """One solution row as a results-JSON binding object (unbound omitted)."""
    record: dict[str, dict[str, str]] = {}
    for variable in variables:
        term = row.get(variable)
        if term is not None:
            record[str(variable)] = term_to_json(term)
    return record


_escape = json.encoder.encode_basestring_ascii  # what json.dumps escapes with


def _json_term(term: Term) -> str:
    """``json.dumps(term_to_json(term))``, without the dict in between."""
    if isinstance(term, Literal):
        text = '{"type": "literal", "value": ' + _escape(term.lexical)
        if term.lang is not None:
            return text + ', "xml:lang": ' + _escape(term.lang) + "}"
        if term.datatype and term.datatype != XSD_STRING:
            return text + ', "datatype": ' + _escape(term.datatype) + "}"
        return text + "}"
    if isinstance(term, IRI):
        return '{"type": "uri", "value": ' + _escape(term) + "}"
    if isinstance(term, BNode):
        return '{"type": "bnode", "value": ' + _escape(term) + "}"
    raise TypeError(f"not an RDF term: {term!r}")


def _document(
    head: str,
    blocks: Iterable[Block],
    encode: Callable[..., str],
    separator: str = "",
    tail: str = "",
) -> Iterator[str]:
    """``head + first block``, the blocks between (each behind
    ``separator``), ``last block + tail``. A block is encoded and its piece
    yielded once its successor exists, the last one therefore only after
    the source of the blocks is exhausted."""
    prefix = head
    held = None
    for block in blocks:
        if not block[1]:
            continue
        if held is not None:
            yield prefix + encode(*held)
            prefix = separator
        held = block
    yield prefix + ("" if held is None else encode(*held)) + tail


def json_document(
    variables: list[Variable],
    blocks: Iterable[Block],
    extra: dict[str, object] | None = None,
) -> Iterator[str]:
    """A results-JSON document piece by piece, one per block.

    Byte for byte what ``json.dumps`` makes of :func:`binding_to_json` row
    by row, built per column instead: a block is one join over, per row, an
    opening brace and each bound member's ``"name": `` key and cell.

    ``extra`` lands as an ``x-repro`` top-level member (the endpoint uses it
    for approximation metadata); the W3C grammar permits extension members.
    """
    names = [str(v) for v in variables]
    head = '{"head": ' + json.dumps({"vars": names})
    if extra:
        head += ', "x-repro": ' + json.dumps(extra, sort_keys=True)
    # A variable listed twice is still one member of a binding object.
    keys = [
        None if name in names[:index] else _escape(name) + ": "
        for index, name in enumerate(names)
    ]

    def encode(columns, count: int, dictionary) -> str:
        members = [(key, column) for key, column in zip(keys, columns)
                   if key is not None and column is not None]
        step = 1 + 2 * len(members)
        parts = ["}, {"] * (step * count)
        parts[0] = "{"
        sep = ""  # what precedes a row's next member: one for all rows, or a list
        for index, (key, column) in enumerate(members):
            cells = _cells(column, dictionary, _json_term)  # "" where unbound
            unbound = ((column == UNBOUND).any() if dictionary is not None
                       else None in column)  # read off the ids, not the text
            if isinstance(sep, str) and not unbound:
                prefixes, sep = [sep + key] * count, ", "
            else:  # unbound cells: from here on each row has its own
                seps = [sep] * count if isinstance(sep, str) else sep
                prefixes = [s + key if cell else "" for s, cell in zip(seps, cells)]
                sep = [", " if cell else s for s, cell in zip(seps, cells)]
            parts[1 + 2 * index::step] = prefixes
            parts[2 + 2 * index::step] = cells
        return "".join(parts) + "}"

    return _document(
        head + ', "results": {"bindings": [', blocks, encode, ", ", "]}}"
    )


def iter_sparql_json(
    variables: list[Variable],
    rows: Iterable[dict[Variable, Term]],
    extra: dict[str, object] | None = None,
) -> Iterator[str]:
    """:func:`json_document` over solution rows."""
    return json_document(variables, row_blocks(variables, rows), extra)


def to_sparql_json(
    result: SelectResult, extra: dict[str, object] | None = None
) -> str:
    """The whole :class:`SelectResult` as a results-JSON document."""
    return "".join(json_document(result.variables, result.blocks(), extra))


def ask_to_sparql_json(value: bool) -> str:
    """An ASK answer as a results-JSON boolean document."""
    return json.dumps({"head": {}, "boolean": bool(value)})


def parse_sparql_json(text: str) -> SelectResult | bool:
    """Parse a results-JSON document: SELECT → :class:`SelectResult`,
    ASK → bool. The remote-endpoint client's read path."""
    document = json.loads(text)
    if "boolean" in document:
        return bool(document["boolean"])
    variables = [Variable(name) for name in document.get("head", {}).get("vars", [])]
    rows: list[dict[Variable, Term]] = []
    for binding in document.get("results", {}).get("bindings", []):
        rows.append(
            {Variable(name): term_from_json(record)
             for name, record in binding.items()}
        )
    return SelectResult(variables, rows)


# --------------------------------------------------------------------------- #
# W3C SPARQL 1.1 Query Results CSV and TSV
# --------------------------------------------------------------------------- #


def _csv_field(term: Term) -> str:
    """CSV value per the W3C mapping: lexical forms only, RFC 4180 quoting."""
    text = f"_:{term}" if isinstance(term, BNode) else _render(term)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def _tsv_field(term: Term) -> str:
    return term.n3()


def _lines(encode, delimiter: str, newline: str, columns, count: int, dictionary) -> str:
    """A block as CSV / TSV: one line per row of ``encode``'s cells."""
    rows = _rows(columns, count, dictionary, encode)
    return newline.join(map(delimiter.join, rows)) + newline


def csv_document(variables: list[Variable], blocks: Iterable[Block]) -> Iterator[str]:
    """The W3C CSV serialization (CRLF line endings, plain values), one
    piece per block."""
    header = ",".join(str(v) for v in variables) + "\r\n"
    return _document(header, blocks, partial(_lines, _csv_field, ",", "\r\n"))


def to_csv(result: SelectResult) -> str:
    return "".join(csv_document(result.variables, result.blocks()))


def tsv_document(variables: list[Variable], blocks: Iterable[Block]) -> Iterator[str]:
    """The W3C TSV serialization (terms in Turtle/N-Triples syntax), one
    piece per block."""
    header = "\t".join(f"?{v}" for v in variables) + "\n"
    return _document(header, blocks, partial(_lines, _tsv_field, "\t", "\n"))


def to_tsv(result: SelectResult) -> str:
    return "".join(tsv_document(result.variables, result.blocks()))
