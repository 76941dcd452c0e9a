"""RDF term model: IRIs, blank nodes, literals, and triples.

This module is the foundation of the toolkit's Linked Data substrate. The
survey (Bikakis & Sellis, LWDM 2016) targets systems operating over the Web
of Data, whose data model is RDF: every dataset is a set of
``(subject, predicate, object)`` triples whose components are *terms*.

Terms are immutable value objects so they can be dictionary-encoded by the
storage layer (:mod:`repro.store`) and hashed into indexes.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple, Union

__all__ = [
    "IRI",
    "BNode",
    "Literal",
    "Term",
    "Subject",
    "Predicate",
    "RDFObject",
    "Triple",
    "Variable",
    "term_sort_key",
]


_FORBIDDEN_IN_IRI = re.compile(r'[<>" \n\t]')


class IRI(str):
    """An absolute IRI reference (e.g. ``http://example.org/person/1``).

    Subclassing :class:`str` keeps IRIs hashable, orderable, and cheap, while
    still being a distinct type so pattern matching can distinguish an IRI
    from a plain-string literal lexical form.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "IRI":
        if not value:
            raise ValueError("IRI must be a non-empty string")
        if _FORBIDDEN_IN_IRI.search(value):
            raise ValueError(f"IRI contains a character forbidden in IRIs: {value!r}")
        return str.__new__(cls, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IRI({str.__repr__(self)})"

    @property
    def local_name(self) -> str:
        """The fragment or last path segment, used as a default label."""
        if "#" in self:
            return self.rsplit("#", 1)[1]
        return self.rstrip("/").rsplit("/", 1)[-1]

    @property
    def namespace(self) -> str:
        """The IRI minus :attr:`local_name` (the vocabulary prefix part)."""
        local = self.local_name
        if local and self.endswith(local):
            return str(self[: len(self) - len(local)])
        return str(self)

    def n3(self) -> str:
        """Serialize in N-Triples / Turtle syntax."""
        return f"<{self}>"


_bnode_lock = threading.Lock()
_bnode_counter = 0


def _next_bnode_id() -> str:
    global _bnode_counter
    with _bnode_lock:
        _bnode_counter += 1
        return f"b{_bnode_counter}"


class BNode(str):
    """A blank node: an existential, graph-local identifier.

    Constructed with an explicit label (e.g. from a parser) or with a fresh
    process-unique label when called without arguments.
    """

    __slots__ = ()

    def __new__(cls, label: str | None = None) -> "BNode":
        if label is None:
            label = _next_bnode_id()
        if not label:
            raise ValueError("BNode label must be non-empty")
        return str.__new__(cls, label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BNode({str.__repr__(self)})"

    def n3(self) -> str:
        """Serialize in N-Triples / Turtle syntax."""
        return f"_:{self}"


# Well-known datatype IRIs used by Literal's value coercion. Kept as plain
# strings here to avoid a circular import with repro.rdf.vocab.
_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_FLOAT = _XSD + "float"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"
XSD_GYEAR = _XSD + "gYear"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        XSD_FLOAT,
        _XSD + "int",
        _XSD + "long",
        _XSD + "short",
        _XSD + "byte",
        _XSD + "nonNegativeInteger",
        _XSD + "positiveInteger",
        _XSD + "negativeInteger",
        _XSD + "nonPositiveInteger",
        _XSD + "unsignedInt",
        _XSD + "unsignedLong",
    }
)

_TEMPORAL_DATATYPES = frozenset({XSD_DATE, XSD_DATETIME, XSD_GYEAR, _XSD + "time"})


class Literal:
    """An RDF literal: a lexical form plus an optional datatype or language tag.

    ``Literal`` accepts native Python values and infers the XSD datatype::

        Literal(42)          # xsd:integer
        Literal(3.14)        # xsd:double
        Literal(True)        # xsd:boolean
        Literal("chat", lang="fr")   # rdf:langString

    The original Python value (when one can be derived) is exposed via
    :attr:`value`, which the exploration layers use for numeric/temporal
    analysis without re-parsing lexical forms.
    """

    __slots__ = ("lexical", "datatype", "lang", "_value")

    def __init__(
        self,
        value: object,
        datatype: str | None = None,
        lang: str | None = None,
    ) -> None:
        if lang is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language tag and a datatype")
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        else:
            lexical = str(value)
        self.lexical: str = lexical
        self.lang: str | None = lang.lower() if lang else None
        if self.lang is not None:
            self.datatype: str = RDF_LANGSTRING
        else:
            self.datatype = datatype or XSD_STRING
        self._value: object = _coerce(self.lexical, self.datatype)

    @property
    def value(self) -> object:
        """The literal as a native Python value (str if uncoercible)."""
        return self._value

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    @property
    def is_temporal(self) -> bool:
        return self.datatype in _TEMPORAL_DATATYPES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.lang == other.lang
        )

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype, self.lang))

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        a, b = self._value, other._value
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return a < b
        return (self.lexical, self.datatype) < (other.lexical, other.datatype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.lang:
            return f"Literal({self.lexical!r}, lang={self.lang!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype!r})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        """Serialize in N-Triples / Turtle syntax."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.lang:
            return f'"{escaped}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'


def _coerce(lexical: str, datatype: str) -> object:
    """Derive a native Python value from a lexical form, best effort."""
    try:
        if datatype in _NUMERIC_DATATYPES:
            if datatype in (XSD_DOUBLE, XSD_FLOAT, XSD_DECIMAL):
                return float(lexical)
            return int(lexical)
        if datatype == XSD_BOOLEAN:
            if lexical in ("true", "1"):
                return True
            if lexical in ("false", "0"):
                return False
            raise ValueError(lexical)
        if datatype == XSD_GYEAR:
            return int(lexical)
    except ValueError:
        return lexical
    return lexical


class Variable(str):
    """A SPARQL query variable (``?name``). Never appears in stored data."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not name or name.startswith("?") or name.startswith("$"):
            raise ValueError(f"variable name must be bare (no ?/$ prefix): {name!r}")
        return str.__new__(cls, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({str.__repr__(self)})"

    def n3(self) -> str:
        return f"?{self}"


Term = Union[IRI, BNode, Literal]
Subject = Union[IRI, BNode]
Predicate = IRI
RDFObject = Term


class Triple(NamedTuple):
    """A single RDF statement."""

    subject: Subject
    predicate: Predicate
    object: RDFObject

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


def term_sort_key(term: Term) -> tuple:
    """Total order over heterogeneous terms (blank < IRI < literal).

    Used by ORDER BY in the SPARQL engine and by deterministic serializers.
    """
    if isinstance(term, BNode):
        return (0, str(term))
    if isinstance(term, IRI):
        return (1, str(term))
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            return (2, 0, float(value), term.lexical)
        return (2, 1, term.lexical, str(term.datatype))
    raise TypeError(f"not an RDF term: {term!r}")
