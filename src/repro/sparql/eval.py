"""SPARQL query engine: orchestration over the plan pipeline.

Evaluation is a three-stage pipeline (survey §2/§4: efficient evaluation is
a precondition for interactive exploration)::

    parse → logical plan (:mod:`repro.sparql.plan`, cost-independent
    rewrites) → cost-based ordering (:mod:`repro.sparql.optimizer`, on
    exact pattern counts where the store counts by binary search) →
    streaming physical operators (:mod:`repro.sparql.physical`)

:class:`QueryEngine` only dispatches on the query form, builds the operator
tree, and shapes results; all value semantics live in
:mod:`repro.sparql.expr` and all execution in the operators. A store on
sorted runs is planned from its own counts, so a pattern's ``est=`` in
:meth:`QueryEngine.explain` is its true cardinality; any other store that
publishes a :class:`~repro.store.base.StatisticsSnapshot` is planned from
that, without a store call. EXPLAIN shows the chosen plan with estimated
and actual cardinalities per operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs import OBS
from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Term, Variable
from ..store.base import TripleSource
from .expr import instantiate
from .nodes import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    Query,
    SelectQuery,
)
from .optimizer import CardinalityEstimator
from .parser import parse_query
from .physical import (
    EvalStats,
    ExplainNode,
    PhysicalOperator,
    build_plan,
    execution_strategy,
    operator_span,
    scan_observations,
)
from .plan import (
    LogicalNode,
    LogicalSlice,
    build_pattern_plan,
    build_select_plan,
    optimize_plan,
    query_digest,
)
from .results import SelectResult, block_rows, decode_block
from .termtable import UNBOUND

__all__ = [
    "EvalStats",
    "ExplainNode",
    "QueryEngine",
    "StreamingSelect",
    "query",
]


@dataclass
class StreamingSelect:
    """A lazily-evaluated SELECT: solutions are produced on demand.

    ``variables`` is the projection header (empty for ``SELECT *``, whose
    variables are only known once rows exist); ``root`` is the executing
    physical operator tree.

    ``rows`` and ``batches`` are two views of one evaluation — consume one
    of them. ``batches`` is the answer as the engine produces it, a
    :class:`~repro.sparql.physical.Batch` of id columns at a time, for
    consumers that serialize or keep it column-wise
    (:func:`~repro.sparql.results.batch_block`,
    :meth:`SelectResult.from_batches`); ``dictionary`` is the plan's
    :class:`~repro.sparql.termtable.TermTable` they decode through.
    ``rows`` decodes the same batches into dicts, one batch at a time.
    """

    variables: list[Variable]
    rows: "object"  # Iterator[dict[Variable, Term]]
    root: PhysicalOperator
    batches: "object"  # Iterator[Batch]
    dictionary: "object"  # TermTable


@dataclass
class QueryEngine:
    """Evaluates parsed queries against a triple source.

    ``optimize=False`` disables every plan rewrite and evaluates each BGP
    in textual order as one component — the baseline the C10 benchmark
    compares against; the operators are the same.

    ``stats`` accumulates across queries until :meth:`EvalStats.reset` is
    called on it; each :class:`SelectResult` additionally carries the
    per-query counters of the run that produced it.

    Every BGP runs on id batches, whatever the store: its own runs and
    dictionary when it has them, else an encoding adaptor over its
    ``triples()`` (:func:`~repro.store.base.as_id_scan_source`); there is
    no mode to set. The tests cross-check answers against the naive
    evaluator in ``tests/sparql/reference.py``.
    """

    store: TripleSource
    optimize: bool = True
    stats: EvalStats = field(default_factory=EvalStats)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def query(self, text: str | Query, digest: str | None = None):
        """Parse (if needed) and evaluate; the result type follows the form:

        SELECT → :class:`SelectResult`, ASK → bool,
        CONSTRUCT/DESCRIBE → :class:`~repro.rdf.graph.Graph`.

        When global tracing (:mod:`repro.obs`) is enabled, the run is
        wrapped in a ``sparql.query`` span with one child span per
        physical operator, timed inclusively and suspension-aware. When
        the query log (``OBS.querylog``) is enabled, the run additionally
        emits one structured workload record.

        ``digest`` is the plan digest when the caller already computed it
        (:class:`~repro.sparql.cached.CachedQueryEngine` keys its cache on
        it); otherwise it is derived here only when the query log needs it.
        """
        parsed = parse_query(text) if isinstance(text, str) else text
        per_query = EvalStats()
        log = OBS.querylog
        logging = log.enabled
        started = time.perf_counter_ns() if logging else 0
        if logging and digest is None:
            digest = query_digest(parsed, optimize=self.optimize)
        trace_id = None
        if not OBS.enabled:
            result, root = self._dispatch(parsed, per_query)
        else:
            per_query.tracer = OBS.tracer
            with OBS.tracer.span(
                "sparql.query", form=type(parsed).__name__
            ) as span:
                result, root = self._dispatch(parsed, per_query)
                span.set_attribute("store_lookups", per_query.store_lookups)
                span.set_attribute("solutions", per_query.solutions)
                if per_query.scan_batches:
                    span.set_attribute("scan_batches", per_query.scan_batches)
                    span.set_attribute("scan_rows", per_query.scan_rows)
                if root is not None:
                    span.add_child(operator_span(root))
            trace_id = getattr(span, "trace_id", None)
        self.stats.merge(per_query)
        if logging:
            log.emit(
                digest=digest,
                form=_form_name(parsed),
                strategy=execution_strategy(root),
                latency_ms=(time.perf_counter_ns() - started) / 1e6,
                counters=per_query,
                scans=scan_observations(root),
                trace_id=trace_id,
            )
        if digest is not None and isinstance(result, SelectResult):
            result.plan_digest = digest
        return result

    def _dispatch(
        self, parsed: Query, per_query: EvalStats
    ) -> tuple[object, PhysicalOperator | None]:
        """``(result, executed operator tree)``; the tree is ``None`` for a
        DESCRIBE that needed no pattern evaluation."""
        if isinstance(parsed, SelectQuery):
            return self._eval_select(parsed, per_query)
        if isinstance(parsed, AskQuery):
            return self._eval_ask(parsed, per_query)
        if isinstance(parsed, ConstructQuery):
            return self._eval_construct(parsed, per_query)
        if isinstance(parsed, DescribeQuery):
            return self._eval_describe(parsed, per_query)
        raise TypeError(f"unsupported query type: {type(parsed).__name__}")

    def explain(self, text: str | Query, analyze: bool = True) -> ExplainNode:
        """The physical plan as an :class:`ExplainNode` tree.

        With ``analyze=True`` (the default) the plan is executed first, so
        every node reports its actual row count and inclusive wall-clock
        time (``time=…ms``, sourced from the operator span timers) next to
        the planner's estimate; with ``analyze=False`` only estimates are
        filled in: nothing is scanned, and a store that counts by binary
        search is asked one count per constant-bound pattern.
        """
        parsed = parse_query(text) if isinstance(text, str) else text
        per_query = EvalStats()
        if analyze:
            # EXPLAIN ANALYZE always times operators — measuring is the
            # point — independent of the global tracing switch.
            per_query.tracer = OBS.tracer
        root = self._build_root(parsed, per_query)
        if root is None:  # DESCRIBE without a WHERE clause has no plan
            detail = ", ".join(r.n3() for r in parsed.resources)
            return ExplainNode("Describe", detail, None, None, ())
        if analyze:
            if OBS.enabled:
                with OBS.tracer.span(
                    "sparql.explain", form=type(parsed).__name__
                ) as span:
                    _drain(root)
                    span.add_child(operator_span(root))
            else:
                _drain(root)
            self.stats.merge(per_query)
        return root.explain()

    def stream_select(
        self, text: str | Query, digest: str | None = None
    ) -> StreamingSelect:
        """Evaluate a SELECT without materializing its rows.

        The returned iterators (:class:`StreamingSelect`: ``rows`` or
        ``batches``) drive the streaming physical operators directly, so
        the first row costs first-batch work, not full-result work — the
        property the serving layer's chunked delivery relies on.
        Per-query stats merge into :attr:`stats` when the iterator is
        exhausted (an abandoned iterator contributes nothing). The query
        log, by contrast, records *every* started stream when it closes —
        abandoned ones (e.g. the serving layer's bounded-work approximate
        tier) carry ``complete=false`` and whatever partial counters the
        consumed prefix accumulated.
        """
        parsed = parse_query(text) if isinstance(text, str) else text
        if not isinstance(parsed, SelectQuery):
            raise TypeError("stream_select requires a SELECT query")
        per_query = EvalStats()
        if OBS.enabled:
            per_query.tracer = OBS.tracer
        log = OBS.querylog
        logging = log.enabled
        if logging and digest is None:
            digest = query_digest(parsed, optimize=self.optimize)
        root = self._build_root(parsed, per_query)
        variables = (
            [] if parsed.select_all
            else [p.variable for p in parsed.projections]
        )
        started = time.perf_counter_ns() if logging else 0
        # The ambient trace is captured at stream creation: an abandoned
        # generator is closed by GC, possibly after the serving span ended.
        trace_id = None
        if logging and log.trace_provider is not None:
            trace_id = getattr(log.trace_provider(), "trace_id", None)

        def generate(batches):
            finished = False
            try:
                for batch in batches:
                    per_query.solutions += batch.count
                    yield batch
                finished = True
                self.stats.merge(per_query)
            finally:
                if logging:
                    log.emit(
                        digest=digest,
                        form="SELECT",
                        strategy=execution_strategy(root),
                        latency_ms=(
                            time.perf_counter_ns() - started
                        ) / 1e6,
                        counters=per_query,
                        scans=scan_observations(root),
                        trace_id=trace_id,
                        complete=finished,
                    )

        batches = generate(root.execute_batches())
        rows = _decoded_rows(variables, batches, root.table)
        return StreamingSelect(variables, rows, root, batches, root.table)

    def plan_digest(self, text: str | Query) -> str:
        """Stable digest of the optimized logical plan (result-cache key)."""
        parsed = parse_query(text) if isinstance(text, str) else text
        return query_digest(parsed, optimize=self.optimize)

    # ------------------------------------------------------------------ #
    # Pipeline assembly
    # ------------------------------------------------------------------ #

    def _estimator(self) -> CardinalityEstimator | None:
        # The unoptimized baseline plans nothing, so it also estimates
        # nothing — zero store access beyond execution itself.
        if not self.optimize:
            return None
        return CardinalityEstimator.for_store(self.store)

    def _logical(self, parsed: Query) -> LogicalNode | None:
        if isinstance(parsed, SelectQuery):
            node: LogicalNode = build_select_plan(parsed)
        elif isinstance(parsed, AskQuery):
            node = build_pattern_plan(parsed.where)
        elif isinstance(parsed, ConstructQuery):
            node = build_pattern_plan(parsed.where)
            if parsed.limit is not None or parsed.offset:
                node = LogicalSlice(node, parsed.limit, parsed.offset)
        elif isinstance(parsed, DescribeQuery):
            if parsed.where is None:
                return None
            node = build_pattern_plan(parsed.where)
        else:
            raise TypeError(f"unsupported query type: {type(parsed).__name__}")
        if self.optimize:
            node = optimize_plan(node)
        return node

    def _build_root(
        self, parsed: Query, per_query: EvalStats
    ) -> PhysicalOperator | None:
        logical = self._logical(parsed)
        if logical is None:
            return None
        return build_plan(
            logical,
            self.store,
            per_query,
            self._estimator(),
            optimize=self.optimize,
        )

    # ------------------------------------------------------------------ #
    # Query forms
    # ------------------------------------------------------------------ #

    def _eval_select(
        self, q: SelectQuery, per_query: EvalStats
    ) -> tuple[SelectResult, PhysicalOperator]:
        root = self._build_root(q, per_query)
        # The answer stays id columns until a consumer asks for rows or a
        # serializer for text.
        batches = list(root.execute_batches())
        variables = [p.variable for p in q.projections]
        if q.select_all:  # the variables some solution binds
            variables = sorted({
                v for batch in batches
                for v, column in batch.columns.items() if (column != UNBOUND).any()
            }, key=str)
        result = SelectResult.from_batches(variables, batches, root.table)
        per_query.solutions += len(result)
        result.stats = per_query
        result.plan = root.explain()
        return result, root

    def _eval_ask(
        self, q: AskQuery, per_query: EvalStats
    ) -> tuple[bool, PhysicalOperator]:
        root = self._build_root(q, per_query)
        for batch in root.execute_batches():
            if batch.count:
                return True, root
        return False, root

    def _eval_construct(
        self, q: ConstructQuery, per_query: EvalStats
    ) -> tuple[Graph, PhysicalOperator]:
        root = self._build_root(q, per_query)
        graph = Graph()
        for binding in _solutions(root):
            for template in q.template:
                triple = instantiate(template, binding)
                if triple is not None:
                    graph.add(triple)
        return graph, root

    def _eval_describe(
        self, q: DescribeQuery, per_query: EvalStats
    ) -> tuple[Graph, PhysicalOperator | None]:
        graph = Graph()
        resources: set[Term] = set()
        root: PhysicalOperator | None = None
        bindings: list | None = None
        for resource in q.resources:
            if isinstance(resource, Variable):
                if q.where is None:
                    raise ValueError("DESCRIBE with variables needs a WHERE clause")
                if bindings is None:
                    root = self._build_root(q, per_query)
                    bindings = list(_solutions(root))
                for binding in bindings:
                    if resource in binding:
                        resources.add(binding[resource])
            else:
                resources.add(resource)
        for resource in resources:
            if isinstance(resource, (IRI, BNode)):
                for triple in self.store.triples((resource, None, None)):
                    graph.add(triple)
            for triple in self.store.triples((None, None, resource)):
                graph.add(triple)
        return graph, root


def _drain(root: PhysicalOperator) -> None:
    """Run a plan for its accounting alone, the way a query would."""
    for _ in root.execute_batches():
        pass


def _solutions(root: PhysicalOperator):
    """Every solution of ``root`` as a dict, decoded a batch at a time."""
    return _decoded_rows([], root.execute_batches(), root.table)


def _decoded_rows(variables: list[Variable], batches, table):
    """``batches`` as solution rows (of ``variables``, or of every column
    when there are none), decoded one batch at a time."""
    try:
        for columns, count in batches:
            names = variables or list(columns)
            yield from block_rows(names, decode_block(names, columns, count, table))
    finally:
        # Closing the rows closes the evaluation (and logs it) now, not
        # when the last reference to ``batches`` goes away.
        batches.close()


def _form_name(parsed: Query) -> str:
    """The query-log ``form`` label of a parsed query."""
    if isinstance(parsed, SelectQuery):
        return "SELECT"
    if isinstance(parsed, AskQuery):
        return "ASK"
    if isinstance(parsed, ConstructQuery):
        return "CONSTRUCT"
    return "DESCRIBE"


def query(store: TripleSource, text: str, optimize: bool = True):
    """One-shot convenience wrapper around :class:`QueryEngine`."""
    return QueryEngine(store, optimize=optimize).query(text)
