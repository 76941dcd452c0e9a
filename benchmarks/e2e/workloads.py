"""Seeded dataset and request sequences for the served-request benchmark.

Everything here is a pure function of ``seed``: the same seed gives a
byte-identical N-Triples file and byte-identical request lists (a test
pins their digests). The server receives only the generated file.

A workload is a fixed list of requests. The load generator replays a
prefix of it for the run's duration, so two commits measured for the same
time issue the same requests in the same order; a faster commit simply
gets further down the list.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import quote

from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import Literal, Triple
from repro.workload.rdf_graphs import EX, powerlaw_link_graph, typed_entities

DEFAULT_SEED = 7
DEFAULT_ENTITIES = 30_000
N_CLASSES = 6
NUMERIC_PROPERTIES = 2
CATEGORICAL_PROPERTIES = 2

PREFIXES = (
    "PREFIX ex: <http://example.org/data/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)

# Class-restricted templates all ask about this class (the second largest,
# about a fifth of the entities). Class sizes are Zipf-distributed, so a
# class drawn per request would make the work of one template vary sixfold;
# with the few dozen requests a chart run completes, the percentiles would
# then say more about the draw than about the server.
FOCUS_CLASS = 1

# typed_entities draws numeric property p from gauss(50(p+1), 10(p+1)).
NUMERIC_MEAN_SD = tuple((50.0 * (p + 1), 10.0 * (p + 1))
                        for p in range(NUMERIC_PROPERTIES))


# --------------------------------------------------------------------------- #
# Dataset
# --------------------------------------------------------------------------- #


@dataclass
class Dataset:
    """The generated graph, both as the file's lines and as plain records.

    The records (one slot per ``ex:entityN``) are what the reference
    answers in :mod:`reference` are computed from; they are read off the
    generated triples, not off any store or engine.
    """

    entities: int
    lines: list[str]
    cls: list[int]
    label: list[str]
    numeric: list[list[float]]  # numeric[p][i]
    category: list[list[str]]  # category[p][i]
    out_links: list[list[int]]
    # DESCRIBE answers: every file line with the entity as subject / object
    subject_lines: list[list[str]]
    object_lines: list[list[str]]

    def write(self, path) -> None:
        """Write the N-Triples file the server is given."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.lines) + "\n")


def entity_iri(index: int):
    return EX[f"entity{index}"]


def _entity_index(term) -> int:
    return int(term.local_name[len("entity"):])


def generate_triples(entities: int, seed: int) -> list[Triple]:
    triples = list(typed_entities(
        entities, n_classes=N_CLASSES,
        numeric_properties=NUMERIC_PROPERTIES,
        categorical_properties=CATEGORICAL_PROPERTIES, seed=seed,
    ))
    triples.extend(powerlaw_link_graph(
        entities, 2, seed + 1, node_factory=entity_iri,
    ))
    return triples


def build_dataset(entities: int = DEFAULT_ENTITIES,
                  seed: int = DEFAULT_SEED) -> Dataset:
    triples = generate_triples(entities, seed)
    lines = serialize_ntriples(triples).splitlines()
    if len(lines) != len(triples):
        raise RuntimeError("serializer did not emit one line per triple")
    dataset = Dataset(
        entities=entities,
        lines=lines,
        cls=[-1] * entities,
        label=[""] * entities,
        numeric=[[0.0] * entities for _ in range(NUMERIC_PROPERTIES)],
        category=[[""] * entities for _ in range(CATEGORICAL_PROPERTIES)],
        out_links=[[] for _ in range(entities)],
        subject_lines=[[] for _ in range(entities)],
        object_lines=[[] for _ in range(entities)],
    )
    for (subject_term, predicate, value), line in zip(triples, lines):
        subject = _entity_index(subject_term)
        dataset.subject_lines[subject].append(line)
        name = predicate.local_name
        if name == "type":
            dataset.cls[subject] = int(value.local_name[len("Class"):])
        elif name == "label":
            dataset.label[subject] = value.lexical
        elif name.startswith("numeric"):
            dataset.numeric[int(name[len("numeric"):])][subject] = value.value
        elif name.startswith("category"):
            dataset.category[int(name[len("category"):])][subject] = \
                value.lexical
        elif name == "linksTo":
            target = _entity_index(value)
            dataset.out_links[subject].append(target)
            dataset.object_lines[target].append(line)
        else:
            raise RuntimeError(f"unexpected predicate in dataset: {name}")
        if not isinstance(value, Literal) and name not in ("type", "linksTo"):
            raise RuntimeError(f"unexpected object for {name}")
    return dataset


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #


class Request(NamedTuple):
    """One operation: the template it came from, the parameters the
    reference needs to answer it, and the SPARQL text sent."""

    kind: str
    params: tuple
    text: str

    @property
    def target(self) -> str:
        return "/sparql?query=" + quote(self.text, safe="")


def _threshold(rng: random.Random, prop: int, op: str,
               low: float, high: float) -> float:
    """A filter constant that lets a ``low``..``high`` band of standard
    deviations through. Drawn as a float with three decimals, so each is a
    single numeric literal (``20+1`` does not lex: see README) and
    practically never repeats."""
    mean, sd = NUMERIC_MEAN_SD[prop]
    offset = sd * rng.uniform(low, high)
    return round(mean + offset if op == "<" else mean - offset, 3)


def point(rng: random.Random, entities: int) -> Request:
    k = rng.randrange(entities)
    return Request("point", (k,), PREFIXES +
                   f"SELECT ?p ?o WHERE {{ ex:entity{k} ?p ?o }}")


def describe(rng: random.Random, entities: int) -> Request:
    k = rng.randrange(entities)
    return Request("describe", (k,), PREFIXES + f"DESCRIBE ex:entity{k}")


def twohop(rng: random.Random, entities: int) -> Request:
    k = rng.randrange(entities)
    return Request("twohop", (k,), PREFIXES + (
        f"SELECT ?m ?l WHERE {{ ex:entity{k} ex:linksTo ?n . "
        "?n ex:linksTo ?m . ?m rdfs:label ?l }"
    ))


def star(rng: random.Random, entities: int) -> Request:
    x = _threshold(rng, 0, ">", 1.0, 2.0)
    return Request("star", (FOCUS_CLASS, x), PREFIXES + (
        f"SELECT ?s ?l ?v ?c WHERE {{ ?s rdf:type ex:Class{FOCUS_CLASS} . "
        "?s rdfs:label ?l . ?s ex:numeric0 ?v . ?s ex:category1 ?c . "
        f"FILTER(?v > {x}) }} LIMIT 20"
    ))


def page(rng: random.Random, entities: int, limit: int = 2000) -> Request:
    # Classes 0..2 keep more than `limit` rows behind the loosest filter.
    c = rng.randrange(3)
    b = rng.randrange(NUMERIC_PROPERTIES)
    x = _threshold(rng, b, ">", 0.2, 2.0)
    return Request("page", (c, b, x, limit), PREFIXES + (
        f"SELECT ?s ?l ?v WHERE {{ ?s rdf:type ex:Class{c} . "
        f"?s rdfs:label ?l . ?s ex:numeric{b} ?v . "
        f"FILTER(?v > {x}) }} LIMIT {limit}"
    ))


def _chart_params(rng: random.Random) -> tuple[int, int, int, str, float]:
    a = rng.randrange(CATEGORICAL_PROPERTIES)
    b = rng.randrange(NUMERIC_PROPERTIES)
    op = rng.choice("<>")
    # 62-76 % of the values pass: far more rows than the aggressive tier's
    # 500-row budget, and a band narrow enough that the work of a template
    # is about the same in every request.
    return FOCUS_CLASS, a, b, op, _threshold(rng, b, op, 0.3, 0.7)


def gb_all(rng: random.Random, entities: int) -> Request:
    _c, a, b, op, x = _chart_params(rng)
    return Request("gb_all", (a, b, op, x), PREFIXES + (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        f"?s ex:category{a} ?c . ?s ex:numeric{b} ?v . "
        f"FILTER(?v {op} {x}) }} GROUP BY ?c"
    ))


def gb_class(rng: random.Random, entities: int) -> Request:
    c, a, b, op, x = _chart_params(rng)
    return Request("gb_class", (c, a, b, op, x), PREFIXES + (
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        f"?s rdf:type ex:Class{c} . ?s ex:category{a} ?c . "
        f"?s ex:numeric{b} ?v . FILTER(?v {op} {x}) }} GROUP BY ?c"
    ))


def facet(rng: random.Random, entities: int) -> Request:
    _c, a, b, op, x = _chart_params(rng)
    return Request("facet", (a, b, op, x), PREFIXES + (
        "SELECT ?o (COUNT(?s) AS ?n) WHERE { "
        f"?s ex:category{a} ?o . ?s ex:numeric{b} ?v . "
        f"FILTER(?v {op} {x}) }} GROUP BY ?o"
    ))


def count_distinct(rng: random.Random, entities: int) -> Request:
    c, _a, b, op, x = _chart_params(rng)
    return Request("count_distinct", (c, b, op, x), PREFIXES + (
        "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { "
        f"?s rdf:type ex:Class{c} . ?s ex:linksTo ?t . "
        f"?s ex:numeric{b} ?v . FILTER(?v {op} {x}) }}"
    ))


def avg(rng: random.Random, entities: int) -> Request:
    c, _a, b, op, x = _chart_params(rng)
    return Request("avg", (c, b, op, x), PREFIXES + (
        "SELECT (AVG(?v) AS ?mean) (COUNT(?s) AS ?n) WHERE { "
        f"?s rdf:type ex:Class{c} . ?s ex:numeric{b} ?v . "
        f"FILTER(?v {op} {x}) }}"
    ))


def topk(rng: random.Random, entities: int) -> Request:
    c, _a, b, op, x = _chart_params(rng)
    return Request("topk", (c, b, op, x), PREFIXES + (
        f"SELECT ?s ?v WHERE {{ ?s rdf:type ex:Class{c} . "
        f"?s ex:numeric{b} ?v . FILTER(?v {op} {x}) }} "
        "ORDER BY DESC(?v) LIMIT 20"
    ))


def _mix(rng: random.Random, entities: int, count: int,
         block: list[tuple[int, object]]) -> list[Request]:
    """``count`` requests in shuffled blocks, each block holding every
    template exactly its stated number of times. Any stretch of the list
    therefore has the stated mix, whatever the seed and however far a run
    gets: with independent draws, the share of the expensive templates in
    a short run would vary more between seeds than the server does."""
    templates = [template for times, template in block
                 for _ in range(times)]
    requests: list[Request] = []
    while len(requests) < count:
        rng.shuffle(templates)
        requests.extend(template(rng, entities) for template in templates)
    return requests[:count]


# 40 % point, 25 % DESCRIBE, 25 % two-hop, 10 % star
BROWSE_MIX = [(8, point), (5, describe), (5, twohop), (2, star)]
# 15 % GROUP BY, 25 % class-restricted GROUP BY, 20 % facet count,
# 15 % COUNT(DISTINCT), 10 % ungrouped AVG+COUNT, 15 % top-20
CHART_MIX = [(3, gb_all), (5, gb_class), (4, facet),
             (3, count_distinct), (2, avg), (3, topk)]
# The five templates the shed tier may answer approximately (no top-k).
DEGRADED_MIX = [(3, gb_all), (5, gb_class), (4, facet),
                (3, count_distinct), (2, avg)]

REVISIT_POOL = 64


# 40 browse-style SELECTs, 8 page-style SELECTs with LIMIT 200, 16 DESCRIBEs
REVISIT_KINDS = [(24, point), (12, twohop), (4, star), (8, None),
                 (16, describe)]


def _revisit(rng: random.Random, entities: int, count: int) -> list[Request]:
    # Popularity rank -> template is the same for every seed, each kind
    # spread evenly over the ranks: whether rank 1 (a fifth of all draws)
    # is a 200-row page or a point lookup must not depend on the seed.
    pool: list[Request] = []
    placed = [0] * len(REVISIT_KINDS)
    for rank in range(REVISIT_POOL):
        due = [times * (rank + 1) / REVISIT_POOL - placed[kind]
               for kind, (times, _template) in enumerate(REVISIT_KINDS)]
        kind = due.index(max(due))
        placed[kind] += 1
        template = REVISIT_KINDS[kind][1]
        pool.append(page(rng, entities, limit=200) if template is None
                    else template(rng, entities))
    zipf = [1.0 / (rank + 1) for rank in range(REVISIT_POOL)]
    return rng.choices(pool, zipf, k=count)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: int  # length of the full list
    warmup: int  # leading requests replayed before measuring
    tier: str  # shed tier the server is pinned to
    check_every: int  # every n-th measured response is checked in full
    traced: int  # cap on requests in the traced run
    tail: float  # the percentile reported as tail_ms: the highest of p85,
    #              p90 and p95 with ten or more samples beyond it in a run


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "browse",
            "navigation: distinct small lookups that all miss the caches, "
            "so HTTP framing, admission, parse and plan carry the request",
            12_000, 300, "exact", 10, 200, 0.95,
        ),
        Workload(
            "chart",
            "chart-shaped aggregates: at most 20 rows out of 10^4-10^5 "
            "scanned, so the operators above the scans do the work",
            400, 8, "exact", 1, 60, 0.85,
        ),
        Workload(
            "page",
            "result listing: 2000-row pages, so dictionary decode, JSON "
            "serialization and the chunked write do the work",
            1_000, 16, "exact", 10, 100, 0.90,
        ),
        Workload(
            "revisit",
            "back-navigation: Zipf draws from 64 queries that fit every "
            "worker's cache, so SELECTs are answered from the result cache",
            20_000, 1_000, "exact", 10, 200, 0.95,
        ),
        Workload(
            "degraded",
            "the chart aggregates with the server pinned to its aggressive "
            "shed tier: the cost and honesty of the answer under overload",
            800, 16, "aggressive", 1, 60, 0.95,
        ),
    )
}


def build_requests(name: str, seed: int, entities: int,
                   count: int | None = None) -> list[Request]:
    """The request list of workload ``name``.

    Each workload draws from its own stream, so changing one list never
    shifts another. ``count`` shortens the list (smoke runs).
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"e2e:{seed}:{name}")
    count = workload.requests if count is None else count
    if name == "browse":
        return _mix(rng, entities, count, BROWSE_MIX)
    if name == "chart":
        return _mix(rng, entities, count, CHART_MIX)
    if name == "page":
        return [page(rng, entities) for _ in range(count)]
    if name == "revisit":
        return _revisit(rng, entities, count)
    return _mix(rng, entities, count, DEGRADED_MIX)


def digest_requests(requests: list[Request]) -> str:
    joined = "\n".join(request.text for request in requests)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()
