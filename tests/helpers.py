"""Store doubles and reference serializers shared by the test suite."""

import json

from repro.rdf.terms import BNode, Literal
from repro.sparql.results import binding_to_json


class _RowsOnly:
    """Only ``triples`` / ``count`` / ``__len__`` / ``statistics`` of a store."""

    def __init__(self, store):
        self._store = store

    def triples(self, pattern=(None, None, None)):
        return self._store.triples(pattern)

    def count(self, pattern=(None, None, None)):
        return self._store.count(pattern)

    def __len__(self):
        return len(self._store)

    def statistics(self):
        return self._store.statistics()


def rows_only(store):
    """``store`` behind a double that cannot serve id scans.

    ``as_id_scan_source`` then answers ``None``, so ``QueryEngine`` plans
    from the same statistics but lowers every BGP onto the row operators —
    the reference the batch operators are compared with.
    """
    return _RowsOnly(store)


# The SELECT serializers as they were before results.py encoded column-wise:
# one ``json.dumps`` / one joined line per row. Kept as the reference the
# block encoders (and the served bytes) are compared with.


def legacy_json(variables, rows, extra=None) -> str:
    prefix = '{"head": ' + json.dumps({"vars": [str(v) for v in variables]})
    if extra:
        prefix += ', "x-repro": ' + json.dumps(extra, sort_keys=True)
    bindings = ", ".join(json.dumps(binding_to_json(variables, row)) for row in rows)
    return prefix + ', "results": {"bindings": [' + bindings + "]}}"


def legacy_csv(variables, rows) -> str:
    def field(term) -> str:
        if term is None:
            return ""
        if isinstance(term, Literal):
            text = term.lexical
        elif isinstance(term, BNode):
            text = f"_:{term}"
        else:
            text = str(term)
        if any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(str(v) for v in variables)]
    lines += [",".join(field(row.get(v)) for v in variables) for row in rows]
    return "".join(line + "\r\n" for line in lines)


def legacy_tsv(variables, rows) -> str:
    lines = ["\t".join(f"?{v}" for v in variables)]
    lines += [
        "\t".join("" if row.get(v) is None else row[v].n3() for v in variables)
        for row in rows
    ]
    return "".join(line + "\n" for line in lines)
