"""Dictionary encoding of RDF terms.

Every serious triple store dictionary-encodes terms: each distinct IRI,
blank node, or literal is assigned a small integer id, and triples become
fixed-width integer triplets. This is the enabling transform for both the
in-memory indexes (:mod:`repro.store.memory`) and the disk pages
(:mod:`repro.store.paged`), and it is what lets the survey's "billion
objects" requirement (Section 2) meet fixed-size machine resources.

The binary term codec defined here is self-contained (no pickle) so
dictionary files are portable and safe to load.
"""

from __future__ import annotations

import struct
import threading
from typing import IO, Callable, Iterator

import numpy as np

from ..rdf.terms import BNode, IRI, Literal, Term, Triple

__all__ = [
    "TermDictionary",
    "VALUE_EXACT_INT",
    "VALUE_FLOAT",
    "VALUE_INT",
    "VALUE_OTHER",
    "encode_term",
    "decode_term",
]

_KIND_IRI = 0
_KIND_BNODE = 1
_KIND_LITERAL_PLAIN = 2
_KIND_LITERAL_TYPED = 3
_KIND_LITERAL_LANG = 4

_HEADER = struct.Struct("<BI")  # kind, payload length


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _unpack_str(buffer: bytes, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<I", buffer, offset)
    start = offset + 4
    return buffer[start : start + length].decode("utf-8"), start + length


def encode_term(term: Term) -> bytes:
    """Serialize a term to a compact, self-describing byte string."""
    if isinstance(term, IRI):
        payload = _pack_str(str(term))
        return bytes([_KIND_IRI]) + payload
    if isinstance(term, BNode):
        payload = _pack_str(str(term))
        return bytes([_KIND_BNODE]) + payload
    if isinstance(term, Literal):
        if term.lang is not None:
            return bytes([_KIND_LITERAL_LANG]) + _pack_str(term.lexical) + _pack_str(term.lang)
        if term.datatype and term.datatype != "http://www.w3.org/2001/XMLSchema#string":
            return (
                bytes([_KIND_LITERAL_TYPED]) + _pack_str(term.lexical) + _pack_str(term.datatype)
            )
        return bytes([_KIND_LITERAL_PLAIN]) + _pack_str(term.lexical)
    raise TypeError(f"not an encodable RDF term: {term!r}")


def decode_term(data: bytes) -> Term:
    """Inverse of :func:`encode_term`."""
    kind = data[0]
    if kind == _KIND_IRI:
        text, _ = _unpack_str(data, 1)
        return IRI(text)
    if kind == _KIND_BNODE:
        text, _ = _unpack_str(data, 1)
        return BNode(text)
    if kind == _KIND_LITERAL_PLAIN:
        text, _ = _unpack_str(data, 1)
        return Literal(text)
    if kind == _KIND_LITERAL_TYPED:
        lexical, offset = _unpack_str(data, 1)
        datatype, _ = _unpack_str(data, offset)
        return Literal(lexical, datatype=datatype)
    if kind == _KIND_LITERAL_LANG:
        lexical, offset = _unpack_str(data, 1)
        lang, _ = _unpack_str(data, offset)
        return Literal(lexical, lang=lang)
    raise ValueError(f"unknown term kind byte: {kind}")


#: Kind codes of the numeric value column (:meth:`TermDictionary
#: .numeric_columns`). ``VALUE_OTHER`` is zero so "every id of this column
#: is a plain number" is ``kinds[ids].all()``.
VALUE_OTHER = 0  # not a number the column can stand in for: row semantics
VALUE_INT = 1
VALUE_FLOAT = 2

#: Integers beyond this magnitude are not exact in a float64 slot.
VALUE_EXACT_INT = 2**53

_NO_VALUES = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int8))


def numeric_columns_of(terms: list[Term]) -> tuple[np.ndarray, np.ndarray]:
    """Value and kind arrays for ``terms`` — what ``expr.numeric`` accepts.

    A term is numeric when it is a literal whose native value is an
    ``int`` or ``float`` (booleans excluded). NaN and integers float64
    cannot hold exactly stay ``VALUE_OTHER``: comparisons and MIN/MAX over
    them are order- or precision-dependent in Python, so columns holding
    them keep row semantics.
    """
    values = np.zeros(len(terms), dtype=np.float64)
    kinds = np.zeros(len(terms), dtype=np.int8)
    for offset, term in enumerate(terms):
        if not isinstance(term, Literal):
            continue
        native = term.value
        kind = type(native)
        if kind is int:
            if -VALUE_EXACT_INT <= native <= VALUE_EXACT_INT:
                values[offset] = native
                kinds[offset] = VALUE_INT
        elif kind is float and native == native:
            values[offset] = native
            kinds[offset] = VALUE_FLOAT
    return values, kinds


class TermDictionary:
    """Bidirectional term ↔ integer-id mapping.

    Ids are dense and start at 0, so the reverse direction is a plain list.
    An id never changes its term: what is derived from one is kept per id.
    """

    def __init__(self) -> None:
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        # The numeric value column, published copy-on-write: readers take
        # the (values, kinds) pair with one attribute read and never see a
        # half-built array; _value_lock only serializes the extension so
        # concurrent first users do not each pay for the same build.
        self._value_columns = _NO_VALUES
        self._value_lock = threading.Lock()
        self._cells: dict[Callable[[Term], str], list[str | None]] = {}

    def __len__(self) -> int:
        return len(self._id_to_term)

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, assigning a fresh one if unseen."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
        return term_id

    def lookup(self, term: Term) -> int | None:
        """Return the id for ``term`` if known, else ``None`` (read-only)."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Term:
        """Return the term for ``term_id``; raises IndexError if unknown."""
        return self._id_to_term[term_id]

    def decode_batch(self, term_ids) -> list[Term]:
        """Decode a sequence of ids (e.g. a numpy column) to terms.

        What row consumers read (a serializer gathers :meth:`cells`
        instead). Repeated ids come back as the same term object.
        """
        table = self._id_to_term
        if isinstance(term_ids, np.ndarray):
            term_ids = term_ids.tolist()  # plain ints index a list fastest
        return [table[term_id] for term_id in term_ids]

    def cells(self, term_ids, encode: Callable[[Term], str]) -> list[str]:
        """``encode(term)`` of each id, gathered from ``encode``'s column: a
        cell is made the first time its id is gathered, then kept. No lock:
        the column is extended copy-on-write as the dictionary grows, and
        two threads making one cell store equal strings."""
        column = self._cells.get(encode, [])
        if (missing := len(self._id_to_term) - len(column)) > 0:
            column = self._cells[encode] = column + [None] * missing
        if isinstance(term_ids, np.ndarray):
            term_ids = term_ids.tolist()
        cells = [column[term_id] for term_id in term_ids]
        if None in cells:  # ids served in this format for the first time
            table = self._id_to_term
            for offset, term_id in enumerate(term_ids):
                if cells[offset] is None:
                    if column[term_id] is None:
                        column[term_id] = encode(table[term_id])
                    cells[offset] = column[term_id]
        return cells  # type: ignore[return-value]

    def numeric_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared value column: ``(values, kinds)`` indexed by term id.

        ``values`` is float64, ``kinds`` int8 (``VALUE_OTHER`` /
        ``VALUE_INT`` / ``VALUE_FLOAT``); both cover every id assigned
        before the call, so any id read from a store scan indexes them.
        Built lazily on first use and extended when the dictionary has
        grown since — one copy per dictionary, shared by every engine
        worker and every store over it (~9 bytes per term). The returned
        arrays are never written again; treat them as read-only.
        """
        columns = self._value_columns
        if len(columns[0]) >= len(self._id_to_term):
            return columns
        with self._value_lock:
            columns = self._value_columns
            start = len(columns[0])
            fresh = self._id_to_term[start:]  # snapshot: encode() may append
            if fresh:
                values, kinds = numeric_columns_of(fresh)
                columns = (
                    np.concatenate((columns[0], values)),
                    np.concatenate((columns[1], kinds)),
                )
                self._value_columns = columns
        return columns

    def encode_triple(self, triple: Triple) -> tuple[int, int, int]:
        s, p, o = triple
        return self.encode(s), self.encode(p), self.encode(o)

    def decode_triple(self, ids: tuple[int, int, int]) -> Triple:
        s, p, o = ids
        return Triple(self._id_to_term[s], self._id_to_term[p], self._id_to_term[o])

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def terms(self) -> Iterator[Term]:
        """All terms in id order."""
        return iter(self._id_to_term)

    # -- persistence -----------------------------------------------------

    def dump(self, fh: IO[bytes]) -> None:
        """Write the dictionary in id order to a binary stream."""
        fh.write(struct.pack("<I", len(self._id_to_term)))
        for term in self._id_to_term:
            encoded = encode_term(term)
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)

    @classmethod
    def load(cls, fh: IO[bytes]) -> "TermDictionary":
        """Read a dictionary previously written by :meth:`dump`."""
        dictionary = cls()
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            (length,) = struct.unpack("<I", fh.read(4))
            term = decode_term(fh.read(length))
            dictionary.encode(term)
        return dictionary
