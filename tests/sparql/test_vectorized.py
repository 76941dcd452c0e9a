"""The BGP executor: one pipeline on every source, streaming bounds,
row-semantics fallbacks above it."""

import re
from collections import Counter

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql import QueryEngine
from repro.sparql.vectorized import FIRST_BATCH_SIZE
from repro.store import (
    CrackingTripleStore,
    FederatedStore,
    MemoryStore,
    as_id_scan_source,
)
from repro.workload.rdf_graphs import typed_entities
from tests.helpers import e2e_triples, rows_only
from tests.sparql.reference import reference_answer

EX = "http://example.org/data/"
PREFIXES = (
    f"PREFIX ex: <{EX}> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
)


def multiset(result):
    rows = result if isinstance(result, list) else result.rows
    return Counter(
        tuple(sorted((str(v), str(t)) for v, t in row.items())) for row in rows
    )


def reference(store_, query):
    """The naive evaluator's answer over the store's triples."""
    return multiset(reference_answer(query, store_.triples()))


@pytest.fixture(scope="module")
def store():
    built = MemoryStore()
    for triple in typed_entities(300, n_classes=4, seed=17):
        built.add(triple)
    return built


# ---------------------------------------------------------------------------
# One executor on every source
# ---------------------------------------------------------------------------

NUMERIC0 = PREFIXES + "SELECT ?s WHERE { ?s ex:numeric0 ?o }"


def _leaves(plan):
    return {node.operator for node in plan.walk() if not node.children}


def test_auto_uses_vectorized_on_id_scan_stores(store):
    engine = QueryEngine(store)
    engine.query(NUMERIC0)
    assert engine.stats.scan_batches > 0


def test_rows_only_double_runs_on_id_batches(store):
    engine = QueryEngine(rows_only(store))
    assert as_id_scan_source(engine.store) is not engine.store
    result = engine.query(NUMERIC0)
    assert len(result.rows) == 300
    assert engine.stats.scan_batches > 0 and engine.stats.store_lookups > 0
    assert _leaves(result.plan) == {"IdScan"}


def test_plain_graph_falls_back_to_iterator():
    """A plain graph has no id runs: the adaptor falls back to its
    ``triples()`` iterator, and the BGP runs on id batches all the same."""
    graph = Graph()
    graph.add(Triple(IRI(EX + "a"), IRI(EX + "p"), Literal("x")))
    assert as_id_scan_source(graph) is not graph
    engine = QueryEngine(graph)
    result = engine.query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}")
    assert len(result.rows) == 1
    assert engine.stats.scan_batches > 0
    assert _leaves(result.plan) == {"IdScan"}


def test_federation_falls_back_to_iterator(store):
    """Members keep private dictionaries: the adaptor reads the federation
    through its deduplicating ``triples()`` iterator, onto id batches."""
    federated = FederatedStore([("main", store)])
    assert as_id_scan_source(federated) is not federated
    engine = QueryEngine(federated)
    result = engine.query(NUMERIC0)
    assert len(result.rows) == 300
    assert engine.stats.scan_batches > 0
    assert _leaves(result.plan) == {"IdScan"}


def test_unoptimized_baseline_keeps_iterator_semantics(store):
    """``optimize=False``: no rewrites, textual order, one component — the
    same pull-based operator, the same answer."""
    query = PREFIXES + (
        "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v . ?s rdf:type ex:Class1 . "
        "FILTER(?v > 40) }"
    )
    engine = QueryEngine(store, optimize=False)
    result = engine.query(query)
    assert engine.stats.scan_batches > 0
    assert _leaves(result.plan) == {"IdScan"}
    scans = result.plan.find("IdScan")
    assert [scan.detail.split()[1] for scan in scans] == [
        f"<{EX}numeric0>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"]
    assert result.plan.find("Filter")  # not pushed into the BGP
    assert multiset(result) == multiset(QueryEngine(store).query(query))


# ---------------------------------------------------------------------------
# EXPLAIN integration
# ---------------------------------------------------------------------------

STAR = PREFIXES + (
    "SELECT ?e ?v WHERE { ?e rdf:type ex:Class0 . "
    '?e ex:category0 "value0_1" . ?e ex:numeric0 ?v }'
)


def test_explain_shows_strategy_and_scans(store):
    """There is one strategy, so EXPLAIN names none; what it shows is the
    order: the cheapest constraint is scanned, the other one only masks."""
    engine = QueryEngine(store)
    plan = engine.explain(STAR, analyze=True)
    found = plan.find("VectorizedBGP")
    assert len(found) == 1
    bgp = found[0]
    assert bgp.detail == ""  # every variable is projected, nothing to say
    assert bgp.actual_rows is not None
    scans = [node for node in bgp.children if node.operator == "IdScan"]
    assert len(scans) == 3
    assert all("batches" in scan.detail for scan in scans)
    # 94 entities with the value < 151 members of the class (counted: the
    # snapshot's 300 / 3 and 300 / 4 had it the other way): the value is
    # scanned
    assert [scan.estimated_rows for scan in scans] == [94.0, 151.0, 300.0]
    assert '"value0_1"' in scans[0].detail and "Class0" in scans[1].detail
    # scan, one run for the mask, one batched probe for the values
    assert engine.stats.store_lookups == 3
    assert multiset(engine.query(STAR)) == reference(store, STAR)


def test_explain_analyze_matches_between_engines(store):
    query = PREFIXES + (
        "SELECT ?e ?v WHERE { ?e rdf:type ex:Class1 . ?e ex:numeric0 ?v }"
    )
    analyzed_adapted = QueryEngine(rows_only(store)).explain(query)
    analyzed_native = QueryEngine(store).explain(query)
    assert analyzed_adapted.actual_rows == analyzed_native.actual_rows
    assert analyzed_native.actual_rows == sum(reference(store, query).values())


# ---------------------------------------------------------------------------
# Streaming semantics: LIMIT pulls a bounded number of batches
# ---------------------------------------------------------------------------


def test_limit_stops_after_bounded_batches():
    big = MemoryStore()
    for triple in typed_entities(5_000, seed=11):
        big.add(triple)
    engine = QueryEngine(big)
    result = engine.query(
        PREFIXES + "SELECT ?s ?o WHERE { ?s ex:numeric0 ?o } LIMIT 5"
    )
    assert len(result.rows) == 5
    # 5 000 rows match, but LIMIT 5 must pull only the small first chunk.
    assert engine.stats.scan_batches == 1
    assert engine.stats.scan_rows == FIRST_BATCH_SIZE


def test_streaming_select_first_row_is_cheap():
    big = MemoryStore()
    for triple in typed_entities(5_000, seed=11):
        big.add(triple)
    engine = QueryEngine(big)
    stream = engine.stream_select(
        PREFIXES + "SELECT ?s ?o WHERE { ?s ex:numeric0 ?o }"
    )
    next(iter(stream.rows))
    # Pulling one row must not have scanned the full 5 000-row result.
    # (Per-query stats merge into engine.stats only on exhaustion, so read
    # the operator tree's own counters.)
    per_query = stream.root.stats
    assert per_query.scan_rows == FIRST_BATCH_SIZE
    assert per_query.scan_batches == 1


# ---------------------------------------------------------------------------
# Correctness corners specific to the batched implementation
# ---------------------------------------------------------------------------


def test_repeated_variable_in_one_pattern():
    reflexive = MemoryStore()
    p = IRI(EX + "linked")
    a, b = IRI(EX + "a"), IRI(EX + "b")
    reflexive.add(Triple(a, p, a))
    reflexive.add(Triple(a, p, b))
    reflexive.add(Triple(b, p, b))
    query = f"SELECT ?x WHERE {{ ?x <{EX}linked> ?x }}"
    native_rows = multiset(QueryEngine(reflexive).query(query))
    assert native_rows == reference(reflexive, query)
    assert native_rows == multiset(QueryEngine(rows_only(reflexive)).query(query))
    assert sum(native_rows.values()) == 2


def test_filters_and_optional_parity(store):
    query = PREFIXES + (
        "SELECT ?e ?v ?c WHERE { ?e rdf:type ?c . ?e ex:numeric0 ?v . "
        "FILTER(?v > 40) OPTIONAL { ?e ex:category1 ?k } }"
    )
    expected = reference(store, query)
    assert multiset(QueryEngine(store).query(query)) == expected
    assert multiset(QueryEngine(rows_only(store)).query(query)) == expected
    assert sum(expected.values()) > 0


def test_disjoint_components_parity(store):
    # Two variable-disjoint components → a Join (hash, cross product) over
    # two VectorizedBGPs.
    query = PREFIXES + (
        "SELECT ?a ?b WHERE { ?a rdf:type ex:Class1 . ?b rdf:type ex:Class2 }"
    )
    expected = reference(store, query)
    assert multiset(QueryEngine(store).query(query)) == expected
    assert multiset(QueryEngine(rows_only(store)).query(query)) == expected
    assert sum(expected.values()) > 0


def test_cyclic_triangle_parity():
    knows = IRI(EX + "knows")
    nodes = [IRI(EX + f"p{i}") for i in range(9)]
    triangle_store = MemoryStore()
    for i in range(0, 9, 3):
        triangle_store.add(Triple(nodes[i], knows, nodes[i + 1]))
        triangle_store.add(Triple(nodes[i + 1], knows, nodes[i + 2]))
        triangle_store.add(Triple(nodes[i + 2], knows, nodes[i]))
    triangle_store.add(Triple(nodes[0], knows, nodes[4]))  # non-triangle edge
    query = PREFIXES + (
        "SELECT ?a ?b ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?c ex:knows ?a }"
    )
    iterator_rows = multiset(QueryEngine(rows_only(triangle_store)).query(query))
    vectorized_rows = multiset(QueryEngine(triangle_store).query(query))
    assert iterator_rows == vectorized_rows
    assert sum(vectorized_rows.values()) == 9  # 3 triangles × 3 rotations


def test_triangle_work_is_the_paths_it_extends_not_the_product():
    """The directed triangle over a 3,000-entity dataset shaped like the
    served benchmark's (it has none: links point at earlier entities).
    The pipeline scans the edges, extends each to its two-hop paths and
    closes the paths of each batch with one membership probe — the
    counters say so exactly, and nothing grows with edges squared."""
    linked = MemoryStore(e2e_triples(3_000))
    edges = linked.count((None, IRI(EX + "linksTo"), None))
    paths = len(QueryEngine(linked).query(
        PREFIXES + "SELECT ?a ?c WHERE { ?a ex:linksTo ?b . ?b ex:linksTo ?c }"))
    engine = QueryEngine(linked)
    result = engine.query(PREFIXES + (
        "SELECT ?a ?b ?c WHERE { ?a ex:linksTo ?b . ?b ex:linksTo ?c . ?c ex:linksTo ?a }"
    ))
    assert len(result) == 0 and edges < paths < 3 * edges
    assert result.stats.scan_rows == edges + paths
    # the scan, then one probe_ids call per batch of each probe stage
    batches = [
        int(re.search(r"\[(\d+) batches\]", scan.detail).group(1))
        for scan in result.plan.find("IdScan")
    ]
    assert batches[1] == batches[0]  # every batch of edges is extended
    assert result.stats.store_lookups == 1 + batches[1] + batches[2]


def test_cracking_store_end_to_end():
    cracking = CrackingTripleStore()
    for triple in typed_entities(200, seed=23):
        cracking.add(triple)
    query = PREFIXES + (
        'SELECT ?e WHERE { ?e rdf:type ex:Class0 . ?e ex:category0 "value0_0" }'
    )
    assert multiset(QueryEngine(cracking).query(query)) == reference(cracking, query)
    assert cracking.sorts_paid > 0


# ---------------------------------------------------------------------------
# Id-space filters, batch aggregates and top-k above the BGP
# ---------------------------------------------------------------------------


def _explain(store_, query):
    return QueryEngine(store_).explain(PREFIXES + query, analyze=True)


def _only(plan, operator):
    found = plan.find(operator)
    assert len(found) == 1, plan.render()
    return found[0]


@pytest.fixture(scope="module")
def one_class():
    """5 000 entities, all of ex:Class0 (a 5k-member class)."""
    built = MemoryStore()
    for triple in typed_entities(5_000, n_classes=1, seed=5):
        built.add(triple)
    return built


def test_explain_names_the_batch_operators(store):
    plan = _explain(
        store,
        "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        "?s ex:category0 ?c . ?s ex:numeric0 ?v . FILTER(?v > 43.2) } GROUP BY ?c",
    )
    assert plan.operator == "BatchAggregate"
    assert plan.detail == "group=?c aggs=COUNT,AVG"
    assert not plan.find("Aggregate") and not plan.find("Filter")
    assert "filter=id[?v > 43.2]" in _only(plan, "VectorizedBGP").detail

    plan = _explain(
        store,
        "SELECT ?s ?v WHERE { ?s rdf:type ex:Class1 . ?s ex:numeric0 ?v } "
        "ORDER BY DESC(?v) LIMIT 20",
    )
    topk = _only(plan, "TopK")
    assert topk.detail == "k=20 by ?v DESC"
    # the Sort above orders only the candidates, not the class
    assert _only(plan, "Sort").actual_rows == topk.actual_rows < 40
    assert _only(plan, "VectorizedBGP").actual_rows > topk.actual_rows


def test_string_comparison_keeps_row_semantics(store):
    query = (
        "SELECT ?s ?l WHERE { ?s rdfs:label ?l . "
        'FILTER(?l < "Entity 2" && STRSTARTS(?l, "Entity")) }'
    )
    plan = _explain(store, query)
    detail = _only(plan, "VectorizedBGP").detail
    assert 'filter=row[?l < "Entity 2"],row[STRSTARTS' in detail
    assert reference(store, PREFIXES + query) \
        == multiset(QueryEngine(store).query(PREFIXES + query))


def _mixed_store():
    mixed = MemoryStore()
    p, g = IRI(EX + "p"), IRI(EX + "g")
    for index, value in enumerate([1, 2.5, "abc", 4, "7", 9]):
        subject = IRI(EX + f"m{index}")
        mixed.add(Triple(subject, p, Literal(value)))
        mixed.add(Triple(subject, g, Literal(f"g{index % 2}")))
    return mixed


def test_mixed_kind_column_falls_back_visibly():
    mixed = _mixed_store()
    query = "SELECT ?s WHERE { ?s ex:p ?v . FILTER(?v > 2) }"
    # Planned in id space; the string in the column forces row semantics,
    # where "abc" > "2" and "7" > "2" compare as strings and pass.
    assert "filter=id[?v > 2]" in _only(
        QueryEngine(mixed).explain(PREFIXES + query, analyze=False),
        "VectorizedBGP",
    ).detail
    plan = _explain(mixed, query)
    assert "filter=row[?v > 2]" in _only(plan, "VectorizedBGP").detail
    assert plan.actual_rows == 5
    assert plan.actual_rows == _explain(rows_only(mixed), query).actual_rows
    assert plan.actual_rows == sum(reference(mixed, PREFIXES + query).values())


def test_sum_over_a_non_numeric_value_falls_back_to_rows():
    mixed = _mixed_store()
    query = PREFIXES + "SELECT ?g (SUM(?v) AS ?t) (COUNT(?v) AS ?n) WHERE { ?s ex:p ?v . ?s ex:g ?g } GROUP BY ?g"
    plan = QueryEngine(mixed).explain(query)
    assert plan.operator == "BatchAggregate"
    assert "fallback=rows[SUM over a non-numeric value]" in plan.detail
    assert reference(mixed, query) == multiset(QueryEngine(mixed).query(query))


def test_top_k_over_a_non_numeric_column_sorts_everything():
    mixed = _mixed_store()
    query = PREFIXES + "SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY ?v LIMIT 2"
    plan = QueryEngine(mixed).explain(query)
    assert "fallback=all rows[non-numeric sort value]" in _only(plan, "TopK").detail
    assert [row[Variable("v")] for row in reference_answer(query, mixed.triples())] \
        == [row[Variable("v")] for row in QueryEngine(mixed).query(query).rows]


@pytest.mark.parametrize(
    "query",
    [
        # HAVING
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s ex:category0 ?c } GROUP BY ?c HAVING(COUNT(?s) > 1)",
        # SAMPLE / GROUP_CONCAT
        "SELECT ?c (SAMPLE(?s) AS ?one) WHERE { ?s ex:category0 ?c } GROUP BY ?c",
        # expression argument, aggregate inside arithmetic
        "SELECT (SUM(?v * 2) AS ?t) WHERE { ?s ex:numeric0 ?v }",
        "SELECT ((SUM(?v) / COUNT(?s)) AS ?mean) WHERE { ?s ex:numeric0 ?v }",
        # partly unbound input: the aggregate is not directly over a BGP
        "SELECT ?c (AVG(?v) AS ?mean) WHERE { ?s ex:category0 ?c OPTIONAL { ?s ex:numeric0 ?v } } GROUP BY ?c",
    ],
)
def test_uncovered_aggregate_shapes_stay_on_the_row_operator(store, query):
    plan = _explain(store, query)
    assert plan.find("Aggregate") and not plan.find("BatchAggregate")
    assert reference(store, PREFIXES + query) \
        == multiset(QueryEngine(store).query(PREFIXES + query))


def test_adapted_source_runs_filter_aggregate_and_top_k_on_id_batches(store):
    """Behind the encoding adaptor a federation gets the same operators a
    native store gets, over the scratch dictionary's value column."""
    federated = FederatedStore([("main", store)])
    grouped = (
        "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s ex:category0 ?c . ?s ex:numeric0 ?v . "
        "FILTER(?v > 43.2) } GROUP BY ?c"
    )
    plan = _explain(federated, grouped)
    assert plan.operator == "BatchAggregate" and not plan.find("Filter")
    assert "filter=id[?v > 43.2]" in _only(plan, "VectorizedBGP").detail
    assert multiset(QueryEngine(federated).query(PREFIXES + grouped)) \
        == reference(store, PREFIXES + grouped)
    top = "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } ORDER BY DESC(?v) LIMIT 3"
    plan = _explain(federated, top)
    assert _only(plan, "TopK").detail == "k=3 by ?v DESC"
    assert QueryEngine(federated).query(PREFIXES + top).rows \
        == reference_answer(PREFIXES + top, store.triples())


def test_integer_sum_stays_integer_and_huge_sums_fall_back():
    ints = MemoryStore()
    p = IRI(EX + "p")
    for index, value in enumerate([3, 4, 2**52, 2**52 + 1]):
        ints.add(Triple(IRI(EX + f"i{index}"), p, Literal(value)))
    small = PREFIXES + "SELECT (SUM(?v) AS ?t) (MIN(?v) AS ?lo) WHERE { ?s ex:p ?v . FILTER(?v < 10) }"
    result = QueryEngine(ints).query(small)
    assert result.rows == [{Variable("t"): Literal(7), Variable("lo"): Literal(3)}]
    assert "fallback" not in result.plan.detail
    huge = PREFIXES + "SELECT (SUM(?v) AS ?t) WHERE { ?s ex:p ?v }"
    result = QueryEngine(ints).query(huge)
    assert "fallback=rows[SUM could leave the exact integer range]" in result.plan.detail
    assert result.rows == [{Variable("t"): Literal(2**53 + 8)}]


def test_aggregate_decodes_only_its_output_rows(monkeypatch):
    big = MemoryStore()
    for triple in typed_entities(10_000, seed=11):
        big.add(triple)
    decoded: list[int] = []
    decode_batch = big.dictionary.decode_batch
    monkeypatch.setattr(
        big.dictionary, "decode_batch",
        lambda ids: decoded.append(len(ids)) or decode_batch(ids),
    )
    result = QueryEngine(big).query(
        PREFIXES + "SELECT ?c (COUNT(?s) AS ?n) (AVG(?v) AS ?mean) WHERE { "
        "?s ex:category0 ?c . ?s ex:numeric0 ?v . FILTER(?v > 43.2) } GROUP BY ?c"
    )
    assert result.stats.scan_rows >= 10_000
    assert 0 < len(result.rows) <= 10
    # one projected group variable: at most one term per output row
    assert sum(decoded) <= len(result.rows) * len(result.variables)


def test_listing_decodes_its_delivered_cells_and_nothing_else(one_class, monkeypatch):
    from repro.sparql.results import to_sparql_json

    decoded: list[int] = []
    decode_batch = one_class.dictionary.decode_batch
    monkeypatch.setattr(
        one_class.dictionary, "decode_batch",
        lambda ids: decoded.append(len(ids)) or decode_batch(ids),
    )
    engine = QueryEngine(one_class)
    result = engine.query(
        PREFIXES + "SELECT ?s ?v WHERE { ?s rdfs:label ?l . ?s ex:numeric0 ?v . "
        "FILTER(?v > 40) } LIMIT 700"
    )
    # Project -> Slice -> VectorizedBGP ran on id batches: the window cut the
    # last batch before anything was decoded, and nothing is decoded yet
    assert [node.operator for node in result.plan.walk()][:3] == [
        "Project", "Slice", "VectorizedBGP"]
    assert len(result) == 700 and result.stats.solutions == 700
    assert result.plan.find("VectorizedBGP")[0].actual_rows > 700
    assert decoded == []
    assert len(result.rows) == 700
    assert sum(decoded) == 700 * 2  # rows x projected variables; never ?l
    to_sparql_json(result)
    assert sum(decoded) == 700 * 2  # rows exist now: serializers use them
    decoded.clear()
    stream = engine.stream_select(
        PREFIXES + "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v } LIMIT 5")
    assert len(list(stream.rows)) == 5
    assert sum(decoded) == 5 * 2 and stream.root.stats.scan_batches == 1


def test_star_limit_expands_hundreds_of_rows_not_the_class(one_class):
    query = (
        "SELECT ?s ?l ?v ?c WHERE { ?s rdf:type ex:Class0 . ?s rdfs:label ?l . "
        "?s ex:numeric0 ?v . ?s ex:category1 ?c . FILTER(?v > 50) } LIMIT 20"
    )
    engine = QueryEngine(one_class)
    result = engine.query(PREFIXES + query)
    assert len(result.rows) == 20
    assert result.stats.scan_rows < 2_000
    scans = result.plan.find("IdScan")
    assert len(scans) == 4 and all(scan.actual_rows < 1_000 for scan in scans)


def test_scan_chunks_start_small_and_double(one_class):
    engine = QueryEngine(one_class)
    stream = engine.stream_select(PREFIXES + "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v }")
    rows = iter(stream.rows)
    for _ in range(FIRST_BATCH_SIZE):
        next(rows)
    assert stream.root.stats.scan_rows == FIRST_BATCH_SIZE
    next(rows)
    assert stream.root.stats.scan_rows == 3 * FIRST_BATCH_SIZE
    assert sum(1 for _ in rows) == 5_000 - FIRST_BATCH_SIZE - 1
    # after doubling up to the batch size the scan runs in full batches
    assert stream.root.stats.scan_batches < 10


def test_filter_masks_preserve_the_streamed_row_order(one_class):
    engine = QueryEngine(one_class)
    everything = list(engine.stream_select(
        PREFIXES + "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v }").rows)
    filtered = list(engine.stream_select(
        PREFIXES + "SELECT ?s ?v WHERE { ?s ex:numeric0 ?v . FILTER(?v > 50) }").rows)
    v = Variable("v")
    assert 0 < len(filtered) < len(everything)
    assert filtered == [row for row in everything if row[v].value > 50]


def test_value_column_is_shared_across_concurrent_workers():
    import sys
    import threading

    shared = MemoryStore()
    p, q = IRI(EX + "p"), IRI(EX + "q")
    for index in range(2_000):
        shared.add(Triple(IRI(EX + f"n{index}"), p, Literal(index)))
    expected = sum(range(2_000))
    query = PREFIXES + "SELECT (SUM(?v) AS ?t) (COUNT(?v) AS ?n) WHERE { ?s ex:p ?v }"
    sums: list[object] = []
    errors: list[BaseException] = []
    start = threading.Barrier(5)

    def worker():
        try:
            start.wait(timeout=10)
            for _ in range(5):
                row = QueryEngine(shared).query(query).rows[0]
                sums.append((row[Variable("t")].value, row[Variable("n")].value))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer():
        try:
            start.wait(timeout=10)
            for index in range(1_000):  # new literals grow the dictionary
                shared.add(Triple(IRI(EX + f"w{index}"), q, Literal(index + 0.5)))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(4)]
    threads.append(threading.Thread(target=writer, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sums == [(expected, 2_000)] * 20
    # one column for every worker, extended to cover the writer's literals
    values, kinds = shared.dictionary.numeric_columns()
    assert shared.dictionary.numeric_columns()[0] is values
    assert len(values) == len(kinds) == len(shared.dictionary)
    total = QueryEngine(shared).query(
        PREFIXES + "SELECT (SUM(?v) AS ?t) WHERE { ?s ex:q ?v }").rows[0]
    assert total[Variable("t")].value == sum(i + 0.5 for i in range(1_000))
