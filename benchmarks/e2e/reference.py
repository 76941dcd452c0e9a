"""Reference answers and the response verifier.

The expected answer of every request is computed from the generated
records (:class:`workloads.Dataset`) with plain Python: no store, parser or
engine of the system under test is involved, so an engine bug cannot
cancel itself out in the check.

Comparison is on the row *multiset*, numerics within a relative 1e-6, so a
later change may reorder un-ORDERed rows or sum in another order without
failing. (Rounding both sides to six digits instead would not do: the data's
values have three decimals, so a mean is often a short decimal that sits
exactly on a rounding boundary.) ``LIMIT`` without ``ORDER BY`` may return
any ``limit`` distinct rows of the full answer; top-k may break ties at the
cut either way.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import workloads
from workloads import Dataset, Request

DATA = "http://example.org/data/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
NUMERIC_DATATYPES = ("#integer", "#double", "#decimal", "#float",
                     "#long", "#int")
OPS = {"<": operator.lt, ">": operator.gt}


def close(got, expected) -> bool:
    """Cell equality: numerics within a relative 1e-6, all else exact."""
    if isinstance(got, float) and isinstance(expected, float):
        return math.isclose(got, expected, rel_tol=1e-6)
    return got == expected


def rows_close(got: tuple, expected: tuple) -> bool:
    return len(got) == len(expected) and all(map(close, got, expected))


def _sort_key(row: tuple) -> tuple:
    return tuple((0, cell) if isinstance(cell, float) else (1, str(cell))
                 for cell in row)


def entity(index: int) -> str:
    return f"{DATA}entity{index}"


@dataclass
class Check:
    """Outcome of verifying one response."""

    ok: bool
    reason: str = ""
    approximate: bool = False
    rows: int = 0
    # approximate answers: values compared against their stated bound
    bound_checked: int = 0
    bound_violated: int = 0
    rel_errors: list[float] = field(default_factory=list)
    rows_consumed: int = 0


# --------------------------------------------------------------------------- #
# Expected answers
# --------------------------------------------------------------------------- #


def _passing(data: Dataset, b: int, op: str, x: float, c: int | None = None):
    """Indices of entities of class ``c`` (any if None) whose numeric
    property ``b`` passes ``op x``."""
    compare = OPS[op]
    values = data.numeric[b]
    if c is None:
        return [i for i in range(data.entities) if compare(values[i], x)]
    cls = data.cls
    return [i for i in range(data.entities)
            if cls[i] == c and compare(values[i], x)]


def _grouped(data: Dataset, indices, a: int, b: int, with_mean: bool):
    count: Counter = Counter()
    total: dict[str, float] = {}
    keys = data.category[a]
    values = data.numeric[b]
    for i in indices:
        key = keys[i]
        count[key] += 1
        total[key] = total.get(key, 0.0) + values[i]
    if with_mean:
        return {key: (float(n), total[key] / n) for key, n in count.items()}
    return {key: (float(n),) for key, n in count.items()}


def expected_groups(data: Dataset, request: Request) -> dict[str, tuple]:
    """Exact per-group aggregate values of an aggregate request; ungrouped
    aggregates use the single key ``""``. Values are in projection order."""
    kind, params = request.kind, request.params
    if kind == "gb_all":
        a, b, op, x = params
        return _grouped(data, _passing(data, b, op, x), a, b, True)
    if kind == "gb_class":
        c, a, b, op, x = params
        return _grouped(data, _passing(data, b, op, x, c), a, b, True)
    if kind == "facet":
        a, b, op, x = params
        return _grouped(data, _passing(data, b, op, x), a, b, False)
    if kind == "count_distinct":
        c, b, op, x = params
        targets = {t for i in _passing(data, b, op, x, c)
                   for t in data.out_links[i]}
        return {"": (float(len(targets)),)}
    if kind == "avg":
        c, b, op, x = params
        indices = _passing(data, b, op, x, c)
        values = data.numeric[b]
        mean = sum(values[i] for i in indices) / len(indices)
        return {"": (mean, float(len(indices)))}
    raise KeyError(kind)


GROUPED_KINDS = ("gb_all", "gb_class", "facet")


def expected_rows(data: Dataset, request: Request) -> list[tuple]:
    """The exact answer as rows, for requests with one right multiset."""
    kind, params = request.kind, request.params
    if kind == "point":
        (k,) = params
        rows = [(RDF_TYPE, f"{DATA}Class{data.cls[k]}"),
                (RDFS_LABEL, data.label[k])]
        rows += [(f"{DATA}numeric{p}", values[k])
                 for p, values in enumerate(data.numeric)]
        rows += [(f"{DATA}category{p}", values[k])
                 for p, values in enumerate(data.category)]
        rows += [(f"{DATA}linksTo", entity(t)) for t in data.out_links[k]]
        return rows
    if kind == "twohop":
        (k,) = params
        return [(entity(m), data.label[m])
                for n in data.out_links[k] for m in data.out_links[n]]
    groups = expected_groups(data, request)
    if kind in GROUPED_KINDS:
        return [(key, *values) for key, values in groups.items()]
    return [groups[""]]


# --------------------------------------------------------------------------- #
# Response decoding
# --------------------------------------------------------------------------- #


def _cell(cell: dict):
    if cell["type"] == "uri":
        return cell["value"]
    if cell.get("datatype", "").endswith(NUMERIC_DATATYPES):
        return float(cell["value"])
    return cell["value"]


def decode_select(body: bytes) -> tuple[list[str], list[tuple]]:
    document = json.loads(body)
    variables = document["head"]["vars"]
    rows = [
        tuple(_cell(binding[var]) if var in binding else None
              for var in variables)
        for binding in document["results"]["bindings"]
    ]
    return variables, rows


def _entity_index(iri) -> int | None:
    prefix = f"{DATA}entity"
    if isinstance(iri, str) and iri.startswith(prefix) \
            and iri[len(prefix):].isdigit():
        return int(iri[len(prefix):])
    return None


# --------------------------------------------------------------------------- #
# Verifiers
# --------------------------------------------------------------------------- #


def _check_multiset(data, request, rows) -> Check:
    expected = sorted(expected_rows(data, request), key=_sort_key)
    if len(rows) != len(expected) or not all(
            map(rows_close, sorted(rows, key=_sort_key), expected)):
        return Check(False, f"{request.kind}: rows differ from reference",
                     rows=len(rows))
    return Check(True, rows=len(rows))


def _check_limited(data, request, rows, limit, valid, total) -> Check:
    """``LIMIT`` without ``ORDER BY``: any ``limit`` distinct valid rows."""
    if len(set(rows)) != len(rows):
        return Check(False, f"{request.kind}: duplicate rows", rows=len(rows))
    if len(rows) != min(limit, total):
        return Check(False, f"{request.kind}: {len(rows)} rows, expected "
                     f"{min(limit, total)}", rows=len(rows))
    for row in rows:
        if not valid(row):
            return Check(False, f"{request.kind}: row not in the answer: "
                         f"{row!r}", rows=len(rows))
    return Check(True, rows=len(rows))


def _check_star(data: Dataset, request: Request, rows) -> Check:
    c, x = request.params
    values, keys = data.numeric[0], data.category[1]

    def valid(row) -> bool:
        i = _entity_index(row[0])
        return (i is not None and i < data.entities and data.cls[i] == c
                and values[i] > x
                and rows_close(row[1:], (data.label[i], values[i], keys[i])))

    total = len(_passing(data, 0, ">", x, c))
    return _check_limited(data, request, rows, 20, valid, total)


def _check_page(data: Dataset, request: Request, rows) -> Check:
    c, b, x, limit = request.params
    values = data.numeric[b]

    def valid(row) -> bool:
        i = _entity_index(row[0])
        return (i is not None and i < data.entities and data.cls[i] == c
                and values[i] > x
                and rows_close(row[1:], (data.label[i], values[i])))

    total = len(_passing(data, b, ">", x, c))
    return _check_limited(data, request, rows, limit, valid, total)


def _check_topk(data: Dataset, request: Request, rows) -> Check:
    c, b, op, x = request.params
    values = data.numeric[b]
    passing = _passing(data, b, op, x, c)
    top = sorted((values[i] for i in passing), reverse=True)[:20]
    if not rows_close(tuple(row[1] for row in rows), tuple(top)):
        return Check(False, "topk: values differ from the 20 largest",
                     rows=len(rows))
    allowed = set(passing)
    for iri, value in rows:
        i = _entity_index(iri)
        if i not in allowed or not close(value, values[i]):
            return Check(False, f"topk: wrong row {iri!r}", rows=len(rows))
    if len({row[0] for row in rows}) != len(rows):
        return Check(False, "topk: duplicate subjects", rows=len(rows))
    return Check(True, rows=len(rows))


def _check_describe(data: Dataset, request: Request, body: bytes) -> Check:
    (k,) = request.params
    got = [line.strip() for line in body.decode("utf-8").splitlines()
           if line.strip()]
    expected = data.subject_lines[k] + data.object_lines[k]
    if sorted(got) != sorted(expected):
        return Check(False, "describe: triples differ from the data file",
                     rows=len(got))
    return Check(True, rows=len(got))


def _check_approximate(data, request, variables, rows, headers) -> Check:
    """An approximate answer is well-formed when it names only real groups
    and states a bound for every aggregate; each estimate is then compared
    with the exact value and that bound (reported, see README)."""
    try:
        bounds = json.loads(headers.get("x-repro-error-bound", ""))
        rows_consumed = int(headers.get("x-repro-rows-consumed", ""))
    except ValueError:
        return Check(False, f"{request.kind}: approximate answer without "
                     "a parseable error bound", approximate=True)
    truth = expected_groups(data, request)
    grouped = request.kind in GROUPED_KINDS
    aliases = variables[1:] if grouped else variables
    check = Check(True, approximate=True, rows=len(rows),
                  rows_consumed=rows_consumed)
    seen = set()
    for row in rows:
        key = row[0] if grouped else ""
        if key not in truth or key in seen:
            return Check(False, f"{request.kind}: unknown or repeated "
                         f"group {key!r}", approximate=True)
        seen.add(key)
        estimates = row[1:] if grouped else row
        for alias, estimate, exact in zip(aliases, estimates, truth[key]):
            bound = bounds.get(alias)
            if bound is None or estimate is None:
                return Check(False, f"{request.kind}: no bound or value "
                             f"for ?{alias}", approximate=True)
            bound = float("inf") if bound == "inf" else float(bound)
            error = abs(estimate - exact)
            check.bound_checked += 1
            # half a unit covers counts rounded to integers
            if error > bound + 0.5 + 1e-6 * abs(exact):
                check.bound_violated += 1
            if exact:
                check.rel_errors.append(error / abs(exact))
    # a real group the answer never mentions is an unbounded miss
    missing = len(truth) - len(seen)
    check.bound_checked += missing
    check.bound_violated += missing
    return check


def check_response(data: Dataset, request: Request, status: int,
                   headers: dict[str, str], body: bytes | None,
                   tier: str) -> Check:
    """Verify one response; without ``body`` only its status and tier.
    ``headers`` has lower-cased names."""
    if status != 200:
        return Check(False, f"{request.kind}: HTTP {status}")
    approximate = headers.get("x-repro-approximate") == "1"
    if approximate and tier == "exact":
        return Check(False, f"{request.kind}: approximate answer from a "
                     "server pinned to the exact tier", approximate=True)
    if body is None:
        return Check(True, approximate=approximate)
    try:
        if request.kind == "describe":
            return _check_describe(data, request, body)
        variables, rows = decode_select(body)
        if approximate:
            return _check_approximate(data, request, variables, rows,
                                      headers)
        if request.kind == "star":
            return _check_star(data, request, rows)
        if request.kind == "page":
            return _check_page(data, request, rows)
        if request.kind == "topk":
            return _check_topk(data, request, rows)
        return _check_multiset(data, request, rows)
    except (ValueError, KeyError, TypeError, IndexError) as error:
        return Check(False, f"{request.kind}: undecodable response "
                     f"({type(error).__name__}: {error})")


def answer_digest(data: Dataset, request: Request) -> str:
    """Canonical text of the reference answer (pinned in golden.json for
    the default seed; limited kinds pin the size of the full answer)."""
    def text(row) -> tuple:
        return tuple(f"{cell:.9g}" if isinstance(cell, float) else cell
                     for cell in row)

    kind = request.kind
    if kind == "describe":
        (k,) = request.params
        return "\n".join(sorted(data.subject_lines[k] + data.object_lines[k]))
    if kind == "star":
        c, x = request.params
        return f"star:{len(_passing(data, 0, '>', x, c))}"
    if kind == "page":
        c, b, x, limit = request.params
        return f"page:{limit}:{len(_passing(data, b, '>', x, c))}"
    if kind == "topk":
        c, b, op, x = request.params
        values = data.numeric[b]
        return repr(text(sorted((values[i]
                                 for i in _passing(data, b, op, x, c)),
                                reverse=True)[:20]))
    return repr(sorted(map(text, expected_rows(data, request))))


# --------------------------------------------------------------------------- #
# Pinned digests for the default seed
# --------------------------------------------------------------------------- #

GOLDEN_ANSWERS = 200  # leading requests whose every 10th answer is pinned


def golden(seed: int, entities: int) -> dict:
    """Digests of the generated inputs and of the reference answers.

    ``golden.json`` holds this for the default seed; a test compares. It
    pins the benchmark itself: a change to a generator, a template or the
    reference shows up as a changed digest, not as a silent shift of every
    number. Regenerate with
    ``PYTHONPATH=src python3 benchmarks/e2e/reference.py > benchmarks/e2e/golden.json``.
    """
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    data = workloads.build_dataset(entities, seed)
    pinned = {}
    for name in workloads.WORKLOADS:
        requests = workloads.build_requests(name, seed, entities)
        pinned[name] = {
            "requests": len(requests),
            "requests_sha256": workloads.digest_requests(requests),
            "answers_sha256": sha("\n".join(
                answer_digest(data, request)
                for request in requests[:GOLDEN_ANSWERS:10])),
        }
    return {
        "seed": seed,
        "entities": entities,
        "dataset_sha256": sha("\n".join(data.lines)),
        "workloads": pinned,
    }


if __name__ == "__main__":
    print(json.dumps(golden(workloads.DEFAULT_SEED,
                            workloads.DEFAULT_ENTITIES), indent=2))
