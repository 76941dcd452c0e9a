"""Batch execution over dictionary-encoded ids: the one BGP executor.

("Efficiently Charting RDF" is the shape: a chart is a small aggregate over
a large scan, and it only becomes interactive when it is answered over
encoded ids end to end.) A basic graph pattern executes as a pipeline of
**id batches** — ``(n,)`` int64 columns per variable, the one protocol of
:mod:`repro.sparql.physical` — against an
:class:`~repro.store.base.IdScanSource`: the store itself (memory,
cracking, paged) or :func:`~repro.store.base.as_id_scan_source`'s
encoding adaptor over its ``triples()`` (federation, remote endpoints,
plain graphs, test doubles). There is nothing to choose between and no
option that chooses.

**One join: scan, then probe, in optimizer order.** The first pattern is
scanned — or, for a BGP with an *input* (the right side of a join whose
shared variables the left always binds), the input's batches take its
place — and each further pattern extends every batch by one
:meth:`~repro.store.base.IdScanSource.probe_ids` call: the batch's columns
of the pattern's bound variables are the keys, its new variables the
values, and a pattern that binds nothing new is a membership test. How a
probe is answered is the store's business (a gather through a predicate's
adjacency, a binary search per key in a sorted run, or one scan per
distinct key behind the encoding adaptor); the executor expands each row
by its match count, so rows keep input order on every path. The scan
starts with a :data:`~repro.store.base.FIRST_BATCH_SIZE`-row chunk that
doubles, so a ``LIMIT k`` consumer that stops pulling has expanded
hundreds of rows.

**Filters are masks.** Each FILTER pushed into the BGP is applied right
after the stage that binds its last variable. The shapes that are provably
safe in id space — ``?v <op> number`` against the dictionary's shared
numeric value column, ``?x = / != / IN`` constant terms by id, ``&&`` of
those — decode nothing (``filter=id[...]`` in EXPLAIN); everything else,
and any batch whose column holds a value the value column cannot stand in
for, keeps row semantics once per distinct combination of the filter's
variables (``filter=row[...]``).

Two operators answer chart-shaped queries from a BGP's batches:
:class:`BatchAggregateOp` (GROUP BY by ``np.unique``, COUNT by
``bincount``, SUM/AVG/MIN/MAX over the value column, COUNT DISTINCT by
unique ``(group, id)`` pairs) and :class:`TopKOp` (``ORDER BY ?v [DESC]
LIMIT k`` candidates by ``np.partition`` on the value column, ties with
the k-th kept). When the data does not fit the value column the aggregate
groups decoded rows as ``AggregateOp`` does, and top-k passes every row on
to the sort.

**The first stage can be a sample.** Every solution of a BGP descends from
one row of its first scan, so drawing ``m`` of its ``N`` rows uniformly
(:meth:`VectorizedBGP.sample_first_stage`) keeps each solution with
probability ``m / N``. The shed tier (:mod:`repro.server.sketch`) answers
aggregates from such a stream; nothing else asks.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..rdf.terms import Literal, Term, Variable
from ..store.base import DEFAULT_BATCH_SIZE, FIRST_BATCH_SIZE, IdScanSource, unique_ids
from ..store.dictionary import VALUE_EXACT_INT, VALUE_FLOAT, TermDictionary
from .expr import ExprError, expression_variables, group_key, numeric, to_term
from .nodes import (
    AggregateExpr,
    BinaryExpr,
    Expression,
    FunctionCall,
    Projection,
    TermExpr,
    TriplePatternNode,
    VariableExpr,
)
from .physical import (
    AggregateOp, Batch, EvalStats, PhysicalOperator, _compress, _concat, _distinct_keys,
    _rows, _Unary, row_mask,
)
from .plan import _canonical_expression
from .termtable import TermTable

__all__ = [
    "FIRST_BATCH_SIZE",
    "BatchAggregateOp",
    "TopKOp",
    "VectorScan",
    "VectorizedBGP",
    "plan_batch_aggregate",
]

#: Column numbering the rows of a first stage that was asked for a sample,
#: so the rows descending from one of them can be counted (the name is not
#: a SPARQL variable name, so it collides with nothing).
_SEED = Variable("first-stage row")


class _Resolved(NamedTuple):
    """A triple pattern with its constants looked up: ``ids`` holds a
    dictionary id per position (``None`` = a variable), ``slots`` the
    ``(position, variable)`` of every variable occurrence."""

    ids: tuple[int | None, int | None, int | None]
    slots: tuple[tuple[int, Variable], ...]

    def variables(self) -> list[Variable]:
        return list(dict.fromkeys(variable for _, variable in self.slots))


def _resolve_pattern(
    pattern: TriplePatternNode, source: IdScanSource
) -> _Resolved | None:
    """Dictionary ids for the constants; ``None`` = provably empty."""
    ids: list[int | None] = []
    slots: list[tuple[int, Variable]] = []
    for position, term in enumerate((pattern.subject, pattern.predicate, pattern.object)):
        if isinstance(term, Variable):
            ids.append(None)
            slots.append((position, term))
        elif (term_id := source.dictionary.lookup(term)) is None:
            return None
        else:
            ids.append(term_id)
    return _Resolved((ids[0], ids[1], ids[2]), tuple(slots))


def _bind(
    matrix: np.ndarray, slots: Iterable[tuple[int, Variable]]
) -> tuple[dict[Variable, np.ndarray], np.ndarray | None]:
    """The columns of ``matrix`` that ``slots`` name, one per variable, on
    the rows where a repeated variable holds one id in every column it
    names; and the mask of those rows (``None``: no variable repeats)."""
    columns: dict[Variable, np.ndarray] = {}
    kept = None
    for at, variable in slots:
        if variable not in columns:
            columns[variable] = matrix[:, at]
        else:
            same = columns[variable] == matrix[:, at]
            kept = same if kept is None else kept & same
    if kept is not None:
        columns = {variable: column[kept] for variable, column in columns.items()}
    return columns, kept


# --------------------------------------------------------------------------- #
# FILTERs in id space
# --------------------------------------------------------------------------- #

# A compiled predicate: mask over the batch, or None when this batch holds
# a value the id-space form cannot decide (row semantics take over).
_Predicate = Callable[[dict[Variable, np.ndarray], TermDictionary], "np.ndarray | None"]

_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "=": np.equal, "!=": np.not_equal}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _constant_number(term: Term) -> int | float | None:
    """``term`` as a number; ``None`` when it is not one (``expr.numeric``)."""
    try:
        return numeric(term)
    except ExprError:
        return None


def _comparable(number: int | float) -> bool:
    """Python compares int to float exactly; float64 only below 2**53."""
    return not isinstance(number, int) or abs(number) <= VALUE_EXACT_INT


def _by_value(variable: Variable, test: Callable[[np.ndarray], np.ndarray]) -> _Predicate:
    def predicate(columns, dictionary):
        ids = columns[variable]
        values, kinds = dictionary.numeric_columns()
        if not kinds[ids].all():
            return None  # a non-number in the column: compare() per row
        return test(values[ids])

    return predicate


def _comparison(variable: Variable, operator: str, term: Term) -> _Predicate | None:
    compare = _COMPARE[operator]
    number = _constant_number(term)
    if number is not None:
        if not _comparable(number):
            return None
        return _by_value(variable, lambda values: compare(values, number))
    if operator not in ("=", "!="):
        return None  # ordering against a string/IRI: string_value semantics
    # Equality with a non-numeric constant is term identity, and the
    # dictionary assigns ids by exactly that identity.

    def predicate(columns, dictionary):
        ids = columns[variable]
        term_id = dictionary.lookup(term)
        if term_id is None:
            return np.full(len(ids), operator == "!=")
        return compare(ids, term_id)

    return predicate


def _membership(variable: Variable, terms: list[Term]) -> _Predicate | None:
    numbers = [_constant_number(term) for term in terms]
    if all(number is None for number in numbers):

        def predicate(columns, dictionary):
            known = [dictionary.lookup(term) for term in terms]
            return np.isin(
                columns[variable], [i for i in known if i is not None]
            )

        return predicate
    if all(n is not None and _comparable(n) for n in numbers):
        return _by_value(variable, lambda values: np.isin(values, numbers))
    return None  # numbers and terms mixed in one list


def _compile_predicate(expression: Expression) -> _Predicate | None:
    """The id-space form of a FILTER clause, or ``None`` if it has none.

    Only shapes that cannot raise per row qualify: a comparison of a
    variable with a constant, ``IN`` over constants, and ``&&`` of those.
    """
    if not isinstance(expression, BinaryExpr):
        return None
    operator, left, right = expression.operator, expression.left, expression.right
    if operator == "&&":
        first, second = _compile_predicate(left), _compile_predicate(right)
        if first is None or second is None:
            return None

        def both(columns, dictionary):
            head = first(columns, dictionary)
            if head is None:
                return None
            tail = second(columns, dictionary)
            return None if tail is None else head & tail

        return both
    if operator in _COMPARE:
        if isinstance(left, VariableExpr) and isinstance(right, TermExpr):
            return _comparison(left.variable, operator, right.term)
        if isinstance(left, TermExpr) and isinstance(right, VariableExpr):
            return _comparison(right.variable, _FLIPPED[operator], left.term)
        return None
    if (
        operator == "IN"
        and isinstance(left, VariableExpr)
        and isinstance(right, FunctionCall)
        and right.name == "_LIST"
        and all(isinstance(arg, TermExpr) for arg in right.args)
    ):
        return _membership(left.variable, [arg.term for arg in right.args])
    return None


def _short(expression: Expression) -> str:
    """Compact rendering for EXPLAIN details: ``?v > 43.2``."""
    if isinstance(expression, VariableExpr):
        return f"?{expression.variable}"
    if isinstance(expression, TermExpr):
        term = expression.term
        if isinstance(term, Literal) and _constant_number(term) is not None:
            return term.lexical
        return term.n3()
    if isinstance(expression, BinaryExpr):
        return (
            f"{_short(expression.left)} {expression.operator} "
            f"{_short(expression.right)}"
        )
    if isinstance(expression, FunctionCall) and expression.name == "_LIST":
        return "(" + ", ".join(_short(arg) for arg in expression.args) + ")"
    return _canonical_expression(expression)


class _Filter:
    """One FILTER clause of a BGP and how it gets evaluated."""

    __slots__ = ("expression", "variables", "predicate", "fell_back")

    def __init__(self, expression: Expression) -> None:
        self.expression = expression
        self.variables = frozenset(expression_variables(expression))
        self.predicate = _compile_predicate(expression)
        # Set when a batch forced the id-space form back to row semantics.
        self.fell_back = False

    def describe(self) -> str:
        in_ids = self.predicate is not None and not self.fell_back
        return f"{'id' if in_ids else 'row'}[{_short(self.expression)}]"


class _FilterStages:
    """Places each filter right after the stage binding its last variable."""

    def __init__(self, bgp: "VectorizedBGP") -> None:
        self.bgp = bgp
        self.pending = list(bgp._filters)
        self.bound: set[Variable] = set()

    def after(
        self, batches: Iterator[Batch], variables: Iterable[Variable] | None
    ) -> Iterator[Batch]:
        """``variables`` just got bound; ``None`` = the last stage ran."""
        if not self.pending:
            return batches
        if variables is None:
            ready, self.pending = self.pending, []
        else:
            self.bound.update(variables)
            ready = [f for f in self.pending if f.variables <= self.bound]
            self.pending = [f for f in self.pending if not f.variables <= self.bound]
        if not ready:
            return batches
        # Id-space masks first: the row path then runs on survivors only.
        ready.sort(key=lambda f: f.predicate is None)
        return self.bgp._apply_filters(batches, ready)


# --------------------------------------------------------------------------- #
# The BGP operator
# --------------------------------------------------------------------------- #


class VectorScan(PhysicalOperator):
    """EXPLAIN/span surface for one id-batch pattern scan.

    Never executed directly: the owning :class:`VectorizedBGP` drives the
    source and accounts rows, batches and (when timed) its stage's own
    time into this node, so EXPLAIN ANALYZE and the operator span tree
    keep one entry per pattern.
    """

    name = "IdScan"

    def __init__(self, table: TermTable, pattern: TriplePatternNode, stats: EvalStats,
                 estimate: float | None) -> None:
        super().__init__(table, stats, estimate)
        self.pattern = pattern
        self.batches = 0
        # As a BGP's first stage: did the consumer pull it to its end? (A
        # LIMIT that stops it early leaves a row count that says nothing
        # about the estimate.)
        self.exhausted = False

    def detail(self) -> str:
        rendered = " ".join(
            t.n3()
            for t in (self.pattern.subject, self.pattern.predicate, self.pattern.object)
        )
        if self.batches:
            rendered += f" [{self.batches} batches]"
        return rendered


class VectorizedBGP(PhysicalOperator):
    """One BGP component executed as batched columnar operators over ids.

    Its children are its pattern scans in join order — after ``input``,
    when it continues another operator's batches through its patterns
    instead of scanning the first one. Filters are masks over its id
    batches (module docstring).
    """

    name = "VectorizedBGP"

    def __init__(
        self, table: TermTable, source: IdScanSource,
        patterns: tuple[TriplePatternNode, ...], filters: tuple[Expression, ...],
        stats: EvalStats, estimate: float | None,
        pattern_estimates: Iterable[float | None], input: PhysicalOperator | None = None,
    ) -> None:
        self.scans = tuple(
            VectorScan(table, pattern, stats, pattern_estimate)
            for pattern, pattern_estimate in zip(patterns, pattern_estimates)
        )
        inputs = () if input is None else (input,)
        super().__init__(table, stats, estimate, inputs + self.scans)
        self.input = input
        self.source = source
        self.patterns = patterns
        self._filters = [_Filter(expression) for expression in filters]
        # Time charged to the scan nodes so far (see _timed).
        self._charged = 0
        # A sample request (rows, passes, generator seed) and what came of
        # it: (first-stage rows handed on so far, first-stage population)
        # and the most solutions any one of those rows led to.
        self._sample: tuple[int, int, int] | None = None
        self.sampled: tuple[int, int] | None = None
        self.fanout = 1

    def sample_first_stage(self, rows: int, seed: int, passes: int = 1) -> None:
        """Ask the next execution to start from a uniform sample.

        The scan of the first pattern hands on at most ``rows`` of its
        ``N`` rows, drawn uniformly without replacement by a generator
        seeded with ``seed``, in random order and in ``passes`` equal
        chunks: every prefix is itself a uniform sample, and every solution
        is kept with probability ``rows / N``. :attr:`sampled` reports
        ``(rows handed on, N)`` as execution proceeds and :attr:`fanout`
        the most solutions one first-stage row led to. With ``N <= rows``
        and one pass the execution is the unsampled one, row for row.
        """
        self._sample = (rows, passes, seed)

    def detail(self) -> str:
        parts = []
        if self.sampled is not None and self.sampled[0] < self.sampled[1]:
            parts.append("sample=%d/%d" % self.sampled)
        if self._filters:
            parts.append("filter=" + ",".join(f.describe() for f in self._filters))
        return " ".join(parts)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def _account_scan(self, scan: VectorScan, rows: int) -> None:
        scan.actual_rows += rows
        scan.batches += 1
        self.stats.record_rows(scan.name, rows)
        self.stats.scan_batches += 1
        self.stats.scan_rows += rows
        self.stats.intermediate_bindings += rows

    def _timed(self, scan: VectorScan, batches: Iterator[Batch]) -> Iterator[Batch]:
        """``batches``, one stage's output, with the stage's own time
        charged to ``scan`` when the run is timed: what producing them
        took (suspension-aware, like every operator's ``wall_ns``) less
        what the stages it pulls from charged meanwhile."""
        if self.stats.tracer is None:
            return batches
        scan.timed = True
        clock = time.perf_counter_ns

        def charged() -> Iterator[Batch]:
            started, before = clock(), self._charged

            def settle() -> None:
                own = clock() - started - (self._charged - before)
                scan.wall_ns += own
                self._charged += own

            for batch in batches:
                settle()
                yield batch
                started, before = clock(), self._charged
            settle()

        return charged()

    def _growing_chunks(self, arrays: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Re-chunk source output: a small first chunk, doubling to full size.

        A consumer that stops early (LIMIT, a bounded prefix) then pays
        for the probes of hundreds of rows, not of a whole batch.
        """
        size = FIRST_BATCH_SIZE
        for array in arrays:
            start = 0
            while start < len(array):
                yield array[start : start + size]
                start += size
                size = min(size * 2, DEFAULT_BATCH_SIZE)

    def _first_stage(self, arrays: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Chunks of the rows this BGP starts from (``arrays``, in run
        order): all of them, or the sample :meth:`sample_first_stage`
        describes."""
        if self._sample is None:
            return self._growing_chunks(arrays)
        return self._drawn(list(arrays))

    def _drawn(self, arrays: list[np.ndarray]) -> Iterator[np.ndarray]:
        rows, passes, seed = self._sample
        population = sum(len(array) for array in arrays)
        take = min(rows, population)
        if take == population and (passes == 1 or not take):
            chunks = self._growing_chunks(arrays)
        else:
            picks = np.random.default_rng(seed).choice(population, take, replace=False)
            if len(arrays) == 1:
                chosen = arrays[0][picks]
            else:  # gather from each store batch what was drawn from it
                chosen = np.empty((take, *arrays[0].shape[1:]), dtype=np.int64)
                start = 0
                for array in arrays:
                    here = (picks >= start) & (picks < start + len(array))
                    chosen[here] = array[picks[here] - start]
                    start += len(array)
            size = -(-take // passes)
            chunks = (chosen[at : at + size] for at in range(0, take, size))
        handed = 0
        self.sampled = (0, population)
        for chunk in chunks:
            handed += len(chunk)
            self.sampled = (handed, population)
            yield chunk

    def _solutions_per_row(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        """Drop the first-stage row numbers, keeping their highest count.
        (A first-stage chunk stays one batch all the way up, so the
        solutions of one row never straddle two.)"""
        for batch in batches:
            columns = dict(batch.columns)
            self.fanout = max(self.fanout, int(np.bincount(columns.pop(_SEED)).max()))
            yield Batch(columns, batch.count)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _batches(self) -> Iterator[Batch]:
        resolved: list[_Resolved] = []
        for pattern in self.patterns:
            one = _resolve_pattern(pattern, self.source)
            if one is None:  # a constant missing from the dictionary
                return iter(())
            resolved.append(one)

        stages = _FilterStages(self)
        batches = None if self.input is None else self._input()
        for scan, one in zip(self.scans, resolved):
            stage = (
                self._scan(scan, one) if batches is None
                else self._probe(batches, scan, one)
            )
            batches = stages.after(self._timed(scan, stage), one.variables())
        batches = stages.after(batches, None)
        if self._sample is not None:
            batches = self._solutions_per_row(batches)
        return batches

    def _input(self) -> Iterator[Batch]:
        """The input's batches without the rows a pattern cannot match: a
        computed term (id <= -2) in a column the patterns mention."""
        mentioned = set().union(*(pattern.variables() for pattern in self.patterns))
        charged = 0  # the input's own time is not the first probe's
        for batch in self.input.execute_batches():
            self._charged += self.input.wall_ns - charged
            charged = self.input.wall_ns
            for variable in mentioned & batch.columns.keys():
                batch = _compress(batch, batch.columns[variable] >= 0)
            if batch.count:
                yield batch

    # -- filters -------------------------------------------------------------

    def _apply_filters(
        self, batches: Iterator[Batch], filters: list[_Filter]
    ) -> Iterator[Batch]:
        """Mask every batch by ``filters``; survivors keep their order."""
        dictionary = self.source.dictionary
        for batch in batches:
            for one in filters:
                mask = None
                if one.predicate is not None and one.variables <= batch.columns.keys():
                    mask = one.predicate(batch.columns, dictionary)
                    if mask is None:
                        one.fell_back = True
                if mask is None:
                    mask = row_mask(one.expression, batch, self.table)
                batch = _compress(batch, mask)
                if not batch.count:
                    break
            if batch.count:
                yield batch

    # -- scan + probe pipeline ----------------------------------------------

    def _scan(self, scan: VectorScan, one: _Resolved) -> Iterator[Batch]:
        """The first stage: every match of the first pattern."""
        scan.executions += 1
        self.stats.store_lookups += 1
        for raw in self._first_stage(self.source.match_id_batches(*one.ids)):
            columns, kept = _bind(raw, one.slots)
            count = len(raw) if kept is None else int(np.count_nonzero(kept))
            self._account_scan(scan, count)
            if not count:
                continue
            if self._sample is not None:
                columns[_SEED] = np.arange(count)
            yield Batch(columns, count)
        scan.exhausted = True

    def _probe(
        self, batches: Iterator[Batch], scan: VectorScan, one: _Resolved
    ) -> Iterator[Batch]:
        """Index-probe join: extend each batch by one pattern's matches,
        one ``probe_ids`` call per batch, each row in place."""
        keyed: list[Variable] | None = None
        for batch in batches:
            scan.executions += 1
            if keyed is None:  # every batch of a stage binds the same variables
                keyed = [v for _, v in one.slots if v in batch.columns]
                key_positions = tuple(at for at, v in one.slots if v in batch.columns)
                value_positions = tuple(at for at, v in one.slots if v not in batch.columns)
                free = list(enumerate(v for _, v in one.slots if v not in batch.columns))
            keys = batch.columns[keyed[0]][:, None] if len(keyed) == 1 else np.array(
                [batch.columns[v] for v in keyed], np.int64
            ).reshape(len(keyed), batch.count).T
            self.stats.store_lookups += 1
            counts, values = self.source.probe_ids(
                *one.ids, key_positions, keys, value_positions
            )
            new, kept = _bind(values, free)
            rows = None
            if kept is not None or not (counts == 1).all():
                rows = np.repeat(np.arange(batch.count), counts)
                if kept is not None:
                    rows = rows[kept]
            total = batch.count if rows is None else len(rows)
            self._account_scan(scan, total)
            if not total:
                continue
            columns = batch.columns if rows is None else {
                variable: column[rows] for variable, column in batch.columns.items()
            }
            yield Batch({**columns, **new}, total)


class _AggSpec(NamedTuple):
    """One output column of a batch aggregate.

    ``function`` is ``"KEY"`` for a projected group variable (``variable``
    names it) or an aggregate name, whose ``variable`` is its argument
    (``None`` = ``COUNT(*)``).
    """

    alias: Variable
    function: str
    variable: Variable | None
    distinct: bool


_BATCH_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def plan_batch_aggregate(
    projections: tuple[Projection, ...],
    group_by: tuple[Expression, ...],
    having: Expression | None,
    variables: frozenset[Variable],
) -> tuple[tuple[Variable, ...], tuple[_AggSpec, ...]] | None:
    """Static eligibility of an aggregate for :class:`BatchAggregateOp`.

    ``variables`` are the ones the BGP underneath certainly binds.
    Covered: plain-variable group keys; projections that are a group
    variable or a bare COUNT / SUM / AVG / MIN / MAX over a variable
    (``COUNT(*)`` and ``COUNT(DISTINCT ?x)`` included). HAVING, SAMPLE,
    GROUP_CONCAT, expression keys or arguments and aggregates nested in
    arithmetic return ``None``: those stay on ``AggregateOp``.
    """
    if having is not None:
        return None
    group_vars: list[Variable] = []
    for expression in group_by:
        if not isinstance(expression, VariableExpr) or expression.variable not in variables:
            return None
        group_vars.append(expression.variable)
    specs: list[_AggSpec] = []
    for projection in projections:
        expression = projection.expression
        if expression is None:
            if projection.variable not in group_vars:
                return None
            specs.append(_AggSpec(projection.variable, "KEY", projection.variable, False))
            continue
        if not isinstance(expression, AggregateExpr):
            return None
        if expression.name not in _BATCH_AGGREGATES:
            return None
        if expression.distinct and expression.name != "COUNT":
            return None
        argument = expression.argument
        if argument is None:
            if expression.name != "COUNT":
                return None
            specs.append(_AggSpec(projection.variable, "COUNT", None, False))
            continue
        if not isinstance(argument, VariableExpr) or argument.variable not in variables:
            return None
        specs.append(_AggSpec(projection.variable, expression.name, argument.variable,
                              expression.distinct))
    return tuple(group_vars), tuple(specs)


class BatchAggregateOp(AggregateOp):
    """GROUP BY / aggregates computed on id columns of a single BGP.

    Group keys are ``np.unique`` over id columns, aggregates run over the
    dictionary's numeric value column, and only the group-key terms are
    decoded (to order the groups as ``AggregateOp`` does). When the data
    does not fit the value column (a non-numeric value under
    SUM/AVG/MIN/MAX, integers whose sum could leave float64's exact range)
    the collected columns are decoded once and grouped by the inherited
    row implementation, so the answer is the same either way and EXPLAIN
    names the reason.
    """

    name = "BatchAggregate"

    def __init__(
        self, child: VectorizedBGP, projections: tuple[Projection, ...],
        group_by: tuple[Expression, ...], group_vars: tuple[Variable, ...],
        specs: tuple[_AggSpec, ...], estimate: float | None,
    ) -> None:
        super().__init__(child, projections, group_by, None, estimate)
        self.group_vars = group_vars
        self.specs = specs
        needed = list(group_vars)
        for spec in specs:
            if spec.variable is not None and spec.variable not in needed:
                needed.append(spec.variable)
        self._needed = tuple(needed)
        self.fallback: str | None = None

    def detail(self) -> str:
        group = ",".join(f"?{v}" for v in self.group_vars)
        aggregates = ",".join(
            spec.function for spec in self.specs if spec.function != "KEY"
        )
        rendered = (f"group={group}" if group else "implicit group")
        rendered += f" aggs={aggregates or '∅'}"
        if self.fallback is not None:
            rendered += f" fallback=rows[{self.fallback}]"
        return rendered

    def _batches(self) -> Iterator[Batch]:
        collected = _concat(list(self.child.execute_batches()), self._needed)
        out = self._grouped(collected)
        yield self._aggregated(_rows(collected, self.table)) if out is None else out

    def _grouped(self, batch: Batch) -> Batch | None:
        dictionary, total = self.child.source.dictionary, batch.count
        if self.group_vars:
            if not total:
                empty = np.empty(0, dtype=np.int64)
                return Batch({spec.alias: empty for spec in self.specs}, 0)
            keys, inverse = _distinct_keys([batch.columns[v] for v in self.group_vars])
        else:  # implicit single group, present even over no rows
            keys = np.empty((1, 0), dtype=np.int64)
            inverse = np.zeros(total, dtype=np.int64)
        groups = len(keys)
        counts = np.bincount(inverse, minlength=groups)

        key_terms = {
            variable: dictionary.decode_batch(keys[:, slot])
            for slot, variable in enumerate(self.group_vars)
        }
        # Same group order as AggregateOp, so a LIMIT above sees the same
        # groups from either implementation.
        order = sorted(
            range(groups),
            key=lambda g: str(
                tuple(group_key(key_terms[v][g]) for v in self.group_vars)
            ),
        )
        columns: dict[Variable, np.ndarray] = {}
        for spec in self.specs:
            if spec.function == "KEY":
                columns[spec.alias] = keys[order, self.group_vars.index(spec.variable)]
                continue
            if spec.function == "COUNT" and not spec.distinct:
                # BGP variables are bound in every row: COUNT(?x) = COUNT(*)
                values = [to_term(n) for n in counts.tolist()]
            elif spec.function == "COUNT":
                values = self._count_distinct(batch.columns[spec.variable], inverse, groups)
            else:
                values = self._numeric(
                    spec.function, batch.columns[spec.variable], inverse, counts
                )
            if values is None:
                return None
            columns[spec.alias] = self.table.ids(values[g] for g in order)
        return Batch(columns, groups)

    def _count_distinct(
        self, ids: np.ndarray, inverse: np.ndarray, groups: int
    ) -> list[Term] | None:
        span = int(ids.max()) + 1 if len(ids) else 1
        if groups * span >= 2**62:
            self.fallback = "(group, id) pairs exceed int64"
            return None
        pairs = unique_ids(inverse * span + ids)
        distinct = np.bincount(pairs // span, minlength=groups)
        return [to_term(n) for n in distinct.tolist()]

    def _numeric(
        self, function: str, ids: np.ndarray, inverse: np.ndarray, counts: np.ndarray
    ) -> list[Term | None] | None:
        """SUM / AVG / MIN / MAX per group, typed as Python would type them."""
        groups = len(counts)
        if not len(ids):  # the implicit group over no rows
            return [to_term(0) if function == "SUM" else None] * groups
        values, kinds = self.child.source.dictionary.numeric_columns()
        kinds = kinds[ids]
        if not kinds.all():
            self.fallback = f"{function} over a non-numeric value"
            return None
        values = values[ids]
        is_float = kinds == VALUE_FLOAT
        if not is_float.all() and np.abs(values).max() * len(ids) >= VALUE_EXACT_INT:
            self.fallback = f"{function} could leave the exact integer range"
            return None
        if function in ("SUM", "AVG"):
            sums = np.bincount(inverse, weights=values, minlength=groups)
            if function == "AVG":
                return [to_term(v) for v in (sums / counts).tolist()]
            # A group's SUM is xsd:integer exactly when all its members are.
            any_float = np.bincount(inverse, weights=is_float, minlength=groups) > 0
            return [to_term(v if f else int(v)) for v, f in zip(sums.tolist(), any_float)]
        # MIN / MAX: min()/max() return the *first* extreme member, whose
        # type (5 vs 5.0) is the answer's datatype — find that member.
        by_group = np.argsort(inverse, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ordered = values[by_group]
        reduce = np.minimum if function == "MIN" else np.maximum
        extreme = reduce.reduceat(ordered, starts)
        positions = np.where(
            ordered == np.repeat(extreme, counts), np.arange(len(ordered)), len(ordered)
        )
        first = np.minimum.reduceat(positions, starts)
        winners = zip(ordered[first].tolist(), is_float[by_group][first].tolist())
        return [to_term(v if f else int(v)) for v, f in winners]


class TopKOp(_Unary):
    """Candidate selection for ``ORDER BY ?v [DESC] LIMIT k`` over one BGP.

    Keeps, batch by batch, only the rows whose sort value is among the k
    best seen so far (every row tied with the k-th stays) and yields them
    as one batch in scan order; the ``SortOp`` / ``SliceOp`` above then
    order and cut them exactly as they would the full input. Selection is
    by the value column, which orders numbers the way ``term_sort_key``
    does; a column holding anything else is passed through whole.
    """

    name = "TopK"

    def __init__(
        self, child: VectorizedBGP, variable: Variable, descending: bool, k: int
    ) -> None:
        estimate = child.estimated_rows
        if estimate is not None:
            estimate = min(estimate, float(k))
        super().__init__(child, estimate)
        self.variable, self.descending, self.k = variable, descending, k
        self.fallback: str | None = None

    def detail(self) -> str:
        rendered = f"k={self.k} by ?{self.variable}"
        if self.descending:
            rendered += " DESC"
        if self.fallback is not None:
            rendered += f" fallback=all rows[{self.fallback}]"
        return rendered

    def _batches(self) -> Iterator[Batch]:
        child = self.child
        dictionary = child.source.dictionary
        kept: Batch | None = None
        for batch in child.execute_batches():
            if kept is not None:
                batch = _concat([kept, batch], batch.columns)
            if self.fallback is None and batch.count > self.k:
                ids = batch.columns[self.variable]
                values, kinds = dictionary.numeric_columns()
                if kinds[ids].all():
                    values = -values[ids] if self.descending else values[ids]
                    kth = np.partition(values, self.k - 1)[self.k - 1]
                    batch = _compress(batch, values <= kth)
                else:
                    self.fallback = "non-numeric sort value"
            kept = batch
        if kept is not None:
            yield kept
