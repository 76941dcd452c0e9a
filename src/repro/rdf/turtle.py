"""Turtle parser and serializer (a practical RDF 1.1 Turtle subset).

Turtle is the syntax WoD publishers actually hand-author, and the syntax the
surveyed browsers ingest. The subset implemented here covers everything the
toolkit's workloads emit and everything common LOD dumps use:

* ``@prefix`` / ``@base`` directives (and SPARQL-style ``PREFIX``/``BASE``)
* prefixed names and relative IRIs
* predicate lists (``;``), object lists (``,``), ``a`` for ``rdf:type``
* anonymous blank nodes ``[ ... ]`` with nested property lists
* RDF collections ``( ... )`` expanded to ``rdf:first``/``rdf:rest`` chains
* numeric (integer/decimal/double), boolean, and string literals with
  language tags or datatypes; long strings (``\"\"\"...\"\"\"``)

Not supported (and rejected loudly rather than misparsed): named graphs
(TriG), ``@`` directives other than prefix/base.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .namespace import NamespaceManager, split_iri
from .terms import IRI, BNode, Literal, RDFObject, Subject, Triple
from .vocab import RDF, XSD, default_namespace_manager

__all__ = ["parse_turtle", "serialize_turtle", "TurtleError"]


class TurtleError(ValueError):
    """Raised on malformed Turtle input with positional context."""


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<TRIPLEQ>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\")
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<IRIREF><[^<>"\s]*>)
  | (?P<PREFIX_DECL>@prefix\b|@base\b|PREFIX\b|BASE\b)
  | (?P<BOOLEAN>\btrue\b|\bfalse\b)
  | (?P<DOUBLE>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
  | (?P<DECIMAL>[+-]?\d*\.\d+)
  | (?P<INTEGER>[+-]?\d+)
  | (?P<BNODE>_:[A-Za-z0-9][A-Za-z0-9_.-]*)
  | (?P<PNAME>[A-Za-z][\w.-]*)?:(?P<PLOCAL>[\w.-]*(?:%[0-9A-Fa-f]{2}[\w.-]*)*)?
  | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<DTYPE>\^\^)
  | (?P<KEYWORD_A>\ba\b)
  | (?P<PUNCT>[;,.\[\]()])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            line = text.count("\n", 0, pos) + 1
            raise TurtleError(f"line {line}: unexpected character {text[pos]!r}")
        kind = match.lastgroup
        if kind in ("PLOCAL", None):  # the PNAME alternative fired
            value = match.group(0)
            # Turtle's PN_LOCAL cannot end in '.'; our regex is greedy, so
            # peel trailing dots back off as statement terminators.
            end = match.end()
            while value.endswith("."):
                value = value[:-1]
                end -= 1
            tokens.append(_Token("QNAME", value, pos))
            for offset in range(end, match.end()):
                tokens.append(_Token("PUNCT", ".", offset))
            pos = match.end()
            continue
        if kind != "WS":
            tokens.append(_Token(kind, match.group(0), pos))
        pos = match.end()
    tokens.append(_Token("EOF", "", n))
    return tokens


from .ntriples import _unescape as _nt_unescape  # shared escape rules


class _Parser:
    """Recursive-descent Turtle parser producing a triple stream."""

    def __init__(self, text: str, base: str | None = None) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._i = 0
        self._base = base or ""
        self.namespaces = NamespaceManager()
        self._triples: list[Triple] = []

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise self._error(f"expected {value or kind}, got {token.value!r}", token)
        return token

    def _error(self, message: str, token: _Token | None = None) -> TurtleError:
        pos = (token or self._peek()).pos
        line = self._text.count("\n", 0, pos) + 1
        return TurtleError(f"line {line}: {message}")

    # -- grammar --------------------------------------------------------

    def parse(self) -> Iterator[Triple]:
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "PREFIX_DECL":
                self._directive()
            else:
                self._triples_block()
            yield from self._triples
            self._triples.clear()

    def _directive(self) -> None:
        decl = self._next()
        keyword = decl.value.lstrip("@").lower()
        sparql_style = not decl.value.startswith("@")
        if keyword == "prefix":
            name_token = self._expect("QNAME")
            prefix = name_token.value[:-1] if name_token.value.endswith(":") else ""
            if ":" in name_token.value:
                prefix = name_token.value.split(":", 1)[0]
            iri_token = self._expect("IRIREF")
            self.namespaces.bind(prefix, self._resolve(iri_token.value[1:-1]))
        elif keyword == "base":
            iri_token = self._expect("IRIREF")
            self._base = self._resolve(iri_token.value[1:-1])
        else:  # pragma: no cover - the lexer only emits prefix/base
            raise self._error(f"unsupported directive {decl.value!r}", decl)
        if not sparql_style:
            self._expect("PUNCT", ".")

    def _triples_block(self) -> None:
        subject = self._subject()
        self._predicate_object_list(subject)
        self._expect("PUNCT", ".")

    def _subject(self) -> Subject:
        token = self._peek()
        if token.kind == "IRIREF" or token.kind == "QNAME":
            return self._iri()
        if token.kind == "BNODE":
            self._next()
            return BNode(token.value[2:])
        if token.kind == "PUNCT" and token.value == "[":
            return self._blank_node_property_list()
        if token.kind == "PUNCT" and token.value == "(":
            return self._collection()
        raise self._error(f"expected subject, got {token.value!r}", token)

    def _predicate_object_list(self, subject: Subject) -> None:
        while True:
            predicate = self._predicate()
            while True:
                obj = self._object()
                self._triples.append(Triple(subject, predicate, obj))
                if self._peek().kind == "PUNCT" and self._peek().value == ",":
                    self._next()
                    continue
                break
            if self._peek().kind == "PUNCT" and self._peek().value == ";":
                self._next()
                # tolerate trailing ';' before '.' or ']'
                nxt = self._peek()
                if nxt.kind == "PUNCT" and nxt.value in (".", "]"):
                    break
                continue
            break

    def _predicate(self) -> IRI:
        token = self._peek()
        if token.kind == "KEYWORD_A":
            self._next()
            return RDF.type
        if token.kind in ("IRIREF", "QNAME"):
            return self._iri()
        raise self._error(f"expected predicate, got {token.value!r}", token)

    def _object(self) -> RDFObject:
        token = self._peek()
        if token.kind in ("IRIREF", "QNAME"):
            return self._iri()
        if token.kind == "BNODE":
            self._next()
            return BNode(token.value[2:])
        if token.kind == "PUNCT" and token.value == "[":
            return self._blank_node_property_list()
        if token.kind == "PUNCT" and token.value == "(":
            return self._collection()
        if token.kind in ("STRING", "TRIPLEQ"):
            return self._literal()
        if token.kind == "INTEGER":
            self._next()
            return Literal(token.value, datatype=XSD.integer)
        if token.kind == "DECIMAL":
            self._next()
            return Literal(token.value, datatype=XSD.decimal)
        if token.kind == "DOUBLE":
            self._next()
            return Literal(token.value, datatype=XSD.double)
        if token.kind == "BOOLEAN":
            self._next()
            return Literal(token.value, datatype=XSD.boolean)
        raise self._error(f"expected object, got {token.value!r}", token)

    def _literal(self) -> Literal:
        token = self._next()
        if token.kind == "TRIPLEQ":
            lexical = _nt_unescape(token.value[3:-3])
        else:
            lexical = _nt_unescape(token.value[1:-1])
        nxt = self._peek()
        if nxt.kind == "LANGTAG":
            self._next()
            return Literal(lexical, lang=nxt.value[1:])
        if nxt.kind == "DTYPE":
            self._next()
            return Literal(lexical, datatype=str(self._iri()))
        return Literal(lexical)

    def _iri(self) -> IRI:
        token = self._next()
        if token.kind == "IRIREF":
            return IRI(self._resolve(_nt_unescape(token.value[1:-1])))
        if token.kind == "QNAME":
            prefix, _, local = token.value.partition(":")
            try:
                return IRI(str(self.namespaces.expand(f"{prefix}:")) + local)
            except KeyError:
                raise self._error(f"unbound prefix {prefix!r}", token) from None
        raise self._error(f"expected IRI, got {token.value!r}", token)

    def _resolve(self, iri: str) -> str:
        """Resolve a (possibly relative) IRI against the current base."""
        if not self._base or re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", iri):
            return iri
        if iri.startswith("#"):
            return self._base.split("#", 1)[0] + iri
        base = self._base
        if not base.endswith(("/", "#")):
            base = base.rsplit("/", 1)[0] + "/"
        return base + iri

    def _blank_node_property_list(self) -> BNode:
        self._expect("PUNCT", "[")
        node = BNode()
        if not (self._peek().kind == "PUNCT" and self._peek().value == "]"):
            self._predicate_object_list(node)
        self._expect("PUNCT", "]")
        return node

    def _collection(self) -> Subject:
        self._expect("PUNCT", "(")
        items: list[RDFObject] = []
        while not (self._peek().kind == "PUNCT" and self._peek().value == ")"):
            items.append(self._object())
        self._expect("PUNCT", ")")
        if not items:
            return RDF.nil
        head = BNode()
        node = head
        for index, item in enumerate(items):
            self._triples.append(Triple(node, RDF.first, item))
            if index == len(items) - 1:
                self._triples.append(Triple(node, RDF.rest, RDF.nil))
            else:
                nxt = BNode()
                self._triples.append(Triple(node, RDF.rest, nxt))
                node = nxt
        return head


def parse_turtle(
    text: str,
    base: str | None = None,
    namespace_manager: NamespaceManager | None = None,
) -> Iterator[Triple]:
    """Parse a Turtle document, yielding triples.

    If a ``namespace_manager`` is supplied, prefixes declared in the document
    are registered on it (so callers can later compact IRIs for display).
    """
    parser = _Parser(text, base=base)
    for triple in parser.parse():
        yield triple
    if namespace_manager is not None:
        for prefix, namespace in parser.namespaces.namespaces():
            namespace_manager.bind(prefix, namespace, replace=False)


def serialize_turtle(
    triples: Iterable[Triple],
    namespace_manager: NamespaceManager | None = None,
) -> str:
    """Serialize triples to compact Turtle grouped by subject.

    Subjects and predicates are emitted in deterministic sorted order so the
    output is stable across runs (important for snapshot tests).
    """
    manager = namespace_manager or default_namespace_manager()
    by_subject: dict[Subject, dict[IRI, list[RDFObject]]] = {}
    used_namespaces: set[str] = set()

    def note(term: object) -> None:
        if isinstance(term, IRI):
            ns, local = split_iri(str(term))
            if local:
                used_namespaces.add(ns)

    for s, p, o in triples:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
        note(s)
        note(p)
        note(o)

    prefix_lines = [
        f"@prefix {prefix}: <{namespace}> ."
        for prefix, namespace in manager.namespaces()
        if namespace in used_namespaces
    ]

    def compact(term: RDFObject | Subject) -> str:
        if isinstance(term, IRI):
            qname = manager.qname(str(term))
            return qname
        if isinstance(term, BNode):
            return term.n3()
        return term.n3()

    blocks: list[str] = []
    for subject in sorted(by_subject, key=str):
        predicates = by_subject[subject]
        lines: list[str] = []
        pred_keys = sorted(predicates, key=str)
        for p_index, predicate in enumerate(pred_keys):
            pred_text = "a" if predicate == RDF.type else compact(predicate)
            objects = sorted(predicates[predicate], key=lambda o: o.n3())
            obj_text = ", ".join(compact(o) for o in objects)
            terminator = " ;" if p_index < len(pred_keys) - 1 else " ."
            lines.append(f"    {pred_text} {obj_text}{terminator}")
        blocks.append(compact(subject) + "\n" + "\n".join(lines))

    parts = []
    if prefix_lines:
        parts.append("\n".join(prefix_lines))
    parts.extend(blocks)
    return "\n\n".join(parts) + ("\n" if parts else "")
