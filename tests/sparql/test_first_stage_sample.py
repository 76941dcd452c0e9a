"""A VectorizedBGP asked to start from a uniform sample of its first stage:
what is drawn, what is reported, and that nothing else moves."""

import numpy as np
import pytest

from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql import QueryEngine
from repro.sparql.physical import execution_strategy
from repro.sparql.vectorized import VectorizedBGP
from repro.store import MemoryStore
from tests.helpers import rows_only

EX = "http://example.org/"
SPAN = 10_000
CENTRES = 1_250
CHAIN = f"SELECT ?s ?v ?w WHERE {{ ?s <{EX}p> ?v . ?s <{EX}q> ?w }}"
STAR = (
    f"SELECT ?s ?t WHERE {{ ?s a <{EX}C> . ?s <{EX}flag> <{EX}on> . "
    f"?s <{EX}linksTo> ?t }}"
)
TRIANGLE = (
    f"SELECT ?a WHERE {{ ?a <{EX}linksTo> ?b . ?b <{EX}linksTo> ?c . "
    f"?c <{EX}linksTo> ?a }}"
)


@pytest.fixture(scope="module")
def store():
    """``SPAN`` subjects with one ``p`` and one ``q`` value each (so a
    solution of CHAIN names its first-stage row by ``?s``); every fourth
    is a ``C`` and links to two others, every eighth is flagged."""
    built = MemoryStore()
    rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    for index in range(SPAN):
        subject = IRI(f"{EX}s{index}")
        built.add(Triple(subject, IRI(EX + "p"), Literal(index)))
        built.add(Triple(subject, IRI(EX + "q"), Literal(index % 7)))
        if index % 4 == 0:
            built.add(Triple(subject, rdf_type, IRI(EX + "C")))
            for hop in (1, 2):
                target = IRI(f"{EX}s{(index + hop) % SPAN}")
                built.add(Triple(subject, IRI(EX + "linksTo"), target))
        if index % 8 == 0:
            built.add(Triple(subject, IRI(EX + "flag"), IRI(EX + "on")))
    return built


def run(store, query, rows=None, seed=0, passes=1):
    """``(bgp, root, batches)`` of ``query``, its BGP asked for ``rows``
    first-stage rows when given."""
    stream = QueryEngine(store).stream_select(query)
    bgp = stream.root.children[0]
    assert isinstance(bgp, VectorizedBGP)
    if rows is not None:
        bgp.sample_first_stage(rows, seed, passes)
    return bgp, stream.root, list(stream.batches)


def column(batches, name):
    return np.concatenate([batch.columns[Variable(name)] for batch in batches])


def test_draws_exactly_m_distinct_first_stage_rows_and_reports_n(store):
    bgp, root, batches = run(store, CHAIN, rows=300, seed=11)
    subjects = column(batches, "s")
    assert len(subjects) == len(set(subjects.tolist())) == 300
    assert bgp.sampled == (300, SPAN)
    assert bgp.fanout == 1
    assert "sample=300/10000" in bgp.detail()
    assert execution_strategy(root).endswith("+sample")
    # Random order, not run order: a prefix of it is a sample too.
    assert subjects.tolist() != sorted(subjects.tolist())
    # Only the drawn rows went up the pipeline.
    assert bgp.children[0].actual_rows == 300


def test_nothing_is_drawn_when_the_stage_fits(store):
    plain = run(store, CHAIN)[2]
    bgp, root, batches = run(store, CHAIN, rows=SPAN, seed=11)
    assert bgp.sampled == (SPAN, SPAN)
    assert "sample" not in bgp.detail()
    assert "+sample" not in execution_strategy(root)
    assert [batch.count for batch in batches] == [b.count for b in plain]
    for name in "svw":
        assert np.array_equal(column(batches, name), column(plain, name))


def test_same_seed_same_rows_other_seed_other_rows(store):
    first = column(run(store, CHAIN, rows=200, seed=5)[2], "s")
    again = column(run(store, CHAIN, rows=200, seed=5)[2], "s")
    other = column(run(store, CHAIN, rows=200, seed=6)[2], "s")
    assert np.array_equal(first, again)
    assert set(first.tolist()) != set(other.tolist())


def test_positions_are_uniform_over_the_span(store):
    """Chi-square over 200 seeds x 100 draws in 20 equal bins of the span
    (critical value for 19 degrees of freedom at p = 0.001: 43.8)."""
    dictionary = store.dictionary
    position = {
        dictionary.lookup(IRI(f"{EX}s{index}")): index for index in range(SPAN)
    }
    bins = np.zeros(20)
    for seed in range(200):
        for subject in column(run(store, CHAIN, 100, seed)[2], "s").tolist():
            bins[position[subject] * 20 // SPAN] += 1
    expected = 200 * 100 / 20
    assert ((bins - expected) ** 2 / expected).sum() < 43.8


def test_positions_are_uniform_over_an_adapted_scan():
    """Behind the encoding adaptor the scan arrives in chunks that double,
    and the draw is over all of their positions: chi-square over 100 seeds
    x 100 draws in 10 equal bins of a 2,000-row scan (critical value for 9
    degrees of freedom at p = 0.001: 27.9)."""
    span = 2_000
    graph = rows_only(MemoryStore(
        Triple(IRI(f"{EX}s{index}"), IRI(EX + "p"), Literal(index))
        for index in range(span)
    ))
    bins = np.zeros(10)
    for seed in range(100):
        stream = QueryEngine(graph).stream_select(f"SELECT ?s ?v WHERE {{ ?s <{EX}p> ?v }}")
        bgp = stream.root.children[0]
        bgp.sample_first_stage(100, seed)
        values = [row[Variable("v")].value for row in stream.rows]
        assert bgp.sampled == (100, span) and len(set(values)) == 100
        for value in values:
            bins[value * 10 // span] += 1
    expected = 100 * 100 / 10
    assert ((bins - expected) ** 2 / expected).sum() < 27.9


def test_star_draws_from_the_intersected_centres(store):
    """A star starts from its smallest constraint run — here the flagged
    subjects, every one of them a ``C``, so the run is the intersection —
    and the other constraint is a mask that drops none of the draw."""
    bgp, _root, batches = run(store, STAR, rows=100, seed=3)
    assert "flag" in bgp.children[0].detail()
    assert bgp.sampled == (100, CENTRES)
    assert len(set(column(batches, "s").tolist())) == 100
    # Both links of a drawn centre come along: what a variance over the
    # solutions has to allow for.
    assert sum(batch.count for batch in batches) == 200
    assert bgp.fanout == 2


def test_passes_cut_the_draw_into_equal_chunks(store):
    bgp, _root, batches = run(store, CHAIN, rows=800, seed=2, passes=4)
    assert [batch.count for batch in batches] == [200, 200, 200, 200]
    assert bgp.sampled == (800, SPAN)
    # Asked for in passes, a stage that fits is still handed on in random
    # order, so every pass but the last is a sample of it.
    bgp, _root, batches = run(store, STAR, rows=5_000, seed=2, passes=2)
    assert bgp.sampled == (CENTRES, CENTRES)
    centres = column(batches[:1], "s").tolist()
    assert centres != sorted(centres)


def test_a_cyclic_bgp_draws_from_its_first_scan(store):
    """A triangle runs on the same pipeline, so it has a first stage like
    any other BGP: every solution descends from one ``linksTo`` edge."""
    edges = 2 * SPAN // 4
    bgp, root, batches = run(store, TRIANGLE, rows=10, seed=0)
    assert bgp.sampled == (10, edges)
    assert bgp.children[0].actual_rows == 10
    assert execution_strategy(root) == "vectorized:binary+sample"
    # s, s+1, s+2 with only every fourth linking out: no triangle closes
    assert not batches
    everything = run(store, TRIANGLE, rows=edges, seed=0)
    assert everything[0].sampled == (edges, edges) and not everything[2]
