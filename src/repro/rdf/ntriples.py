"""N-Triples parser and serializer (W3C RDF 1.1 N-Triples).

N-Triples is the line-oriented exchange syntax of the Web of Data: one
triple per line, fully spelled-out terms. Because it is line-oriented it is
the natural format for the *streaming/dynamic* setting the survey emphasizes
(Section 2): both the parser and serializer here are incremental generators,
so a billion-triple file can be loaded into a disk-backed store without ever
holding more than one line in memory.
"""

from __future__ import annotations

import re
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .terms import IRI, BNode, Literal, Triple

__all__ = ["parse_ntriples", "parse_ntriples_line", "serialize_ntriples", "NTriplesError"]


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input, with line information."""

    def __init__(self, message: str, lineno: int | None = None) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


_IRI_RE = r"<([^<>\"\s]*)>"
_BNODE_RE = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_STRING_RE = r'"((?:[^"\\]|\\.)*)"'
_LITERAL_RE = rf"{_STRING_RE}(?:\^\^{_IRI_RE}|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?"

_TRIPLE_RE = re.compile(
    rf"^\s*(?:{_IRI_RE}|{_BNODE_RE})\s+"  # subject: groups 1 (iri) / 2 (bnode)
    rf"{_IRI_RE}\s+"  # predicate: group 3
    rf"(?:{_IRI_RE}|{_BNODE_RE}|{_LITERAL_RE})"  # object: groups 4-8
    rf"\s*\.\s*(?:#.*)?$"
)

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _unescape(text: str) -> str:
    """Resolve ``\\n``-style and ``\\uXXXX``/``\\UXXXXXXXX`` escapes."""
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise NTriplesError("dangling backslash in literal")
        esc = text[i + 1]
        if esc == "u":
            out.append(chr(int(text[i + 2 : i + 6], 16)))
            i += 6
        elif esc == "U":
            out.append(chr(int(text[i + 2 : i + 10], 16)))
            i += 10
        elif esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 2
        else:
            raise NTriplesError(f"unknown escape \\{esc}")
    return "".join(out)


def _new_iri(text: str) -> IRI:
    return IRI(_unescape(text))


T = TypeVar("T")

#: Bound on each per-parse memo (see :func:`_interning`); like the
#: dictionary's decode memo it is dropped wholesale when it fills up.
_IRI_MEMO_LIMIT = 65_536


def _interning(make: Callable[[str], T]) -> Callable[[str], T]:
    """A constructor that builds each distinct text once.

    A data file repeats its predicates, classes, subjects and literal
    datatypes on almost every line. Handing back the same object skips
    re-validating the text, stores one copy of it however many terms hold
    it, and, because a ``str`` caches its hash, skips re-hashing it when
    the store's term dictionary looks the term up.
    """
    memo: dict[str, T] = {}

    def intern(text: str) -> T:
        made = memo.get(text)
        if made is None:
            if len(memo) >= _IRI_MEMO_LIMIT:
                memo.clear()
            made = memo[text] = make(text)
        return made

    return intern


def parse_ntriples_line(line: str, lineno: int | None = None) -> Triple | None:
    """Parse one N-Triples line; ``None`` for blank/comment lines."""
    return _parse_line(line, lineno, _new_iri, _unescape)


def _parse_line(
    line: str, lineno: int | None, iri: Callable[[str], IRI],
    datatype: Callable[[str], str],
) -> Triple | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    match = _TRIPLE_RE.match(line)
    if match is None:
        raise NTriplesError(f"malformed triple: {stripped[:120]!r}", lineno)
    s_iri, s_bnode, pred, o_iri, o_bnode, o_lex, o_dtype, o_lang = match.groups()
    subject = iri(s_iri) if s_iri is not None else BNode(s_bnode)
    predicate = iri(pred)
    if o_iri is not None:
        obj: IRI | BNode | Literal = iri(o_iri)
    elif o_bnode is not None:
        obj = BNode(o_bnode)
    else:
        lexical = _unescape(o_lex if o_lex is not None else "")
        if o_lang:
            obj = Literal(lexical, lang=o_lang)
        elif o_dtype:
            obj = Literal(lexical, datatype=datatype(o_dtype))
        else:
            obj = Literal(lexical)
    return Triple(subject, predicate, obj)


def parse_ntriples(source: str | IO[str]) -> Iterator[Triple]:
    """Stream triples out of an N-Triples document (string or file-like)."""
    # Split on '\n' only: str.splitlines() also breaks on exotic Unicode line
    # separators (\x0b,  , ...), which are legal *inside* literals.
    lines = source.split("\n") if isinstance(source, str) else source
    iri, datatype = _interning(_new_iri), _interning(_unescape)
    for lineno, line in enumerate(lines, start=1):
        try:
            triple = _parse_line(line, lineno, iri, datatype)
        except NTriplesError:
            raise
        except ValueError as exc:
            raise NTriplesError(str(exc), lineno) from exc
        if triple is not None:
            yield triple


def serialize_ntriples(triples: Iterable[Triple], sort: bool = False) -> str:
    """Serialize triples to an N-Triples document.

    With ``sort=True`` the output is canonically ordered (useful for
    round-trip tests and diffing snapshots).
    """
    lines = [triple.n3() for triple in triples]
    if sort:
        lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
