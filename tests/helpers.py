"""Store doubles, row comparison and reference serializers shared by the
test suite."""

import json
import math

from repro.rdf.terms import BNode, Literal
from repro.sparql.results import binding_to_json
from repro.workload.rdf_graphs import EX, powerlaw_link_graph, typed_entities


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
    """``store`` behind a double that has no id runs to offer.

    ``QueryEngine`` plans from the same statistics and reads the double the
    way it reads a federation or a remote endpoint: ``as_id_scan_source``
    puts the encoding adaptor over its ``triples()``. (The reference the
    engine is compared with is ``tests/sparql/reference.py``.)
    """
    return _RowsOnly(store)


def e2e_triples(entities: int, seed: int = 7) -> list:
    """The dataset of ``benchmarks/e2e/workloads.py::generate_triples``:
    typed entities over six Zipf-sized classes plus two out-links each."""
    triples = list(typed_entities(
        entities, n_classes=6, numeric_properties=2, categorical_properties=2,
        seed=seed,
    ))
    triples.extend(powerlaw_link_graph(
        entities, 2, seed + 1, node_factory=lambda index: EX[f"entity{index}"],
    ))
    return triples


def typed_rows(rows) -> list[tuple]:
    """Rows in a canonical order, each term as (variable, datatype-or-kind,
    value): doubles stay floats so they can be compared with a tolerance."""
    typed = []
    for row in rows:
        cells = []
        for variable, term in sorted(row.items(), key=lambda item: str(item[0])):
            if isinstance(term, Literal) and isinstance(term.value, float):
                cells.append((str(variable), term.datatype, term.value))
            elif isinstance(term, Literal):
                cells.append((str(variable), term.datatype, term.lexical))
            else:
                cells.append((str(variable), type(term).__name__, str(term)))
        typed.append(tuple(cells))
    return sorted(
        typed,
        key=lambda cells: [
            (v, k, f"{x:.6e}" if isinstance(x, float) else x) for v, k, x in cells
        ],
    )


def assert_same_rows(reference, actual):
    """The same multiset of solutions: identical variables, datatypes and
    values, doubles to a tolerance (sums accumulate in another order)."""
    reference, actual = typed_rows(reference), typed_rows(actual)
    assert len(reference) == len(actual)
    for expected, got in zip(reference, actual):
        assert len(expected) == len(got)
        for (var_e, kind_e, value_e), (var_a, kind_a, value_a) in zip(expected, got):
            assert (var_e, kind_e) == (var_a, kind_a)  # datatypes identical
            if isinstance(value_e, float):
                assert math.isclose(value_e, value_a, rel_tol=1e-9, abs_tol=1e-12)
            else:
                assert value_e == value_a


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
