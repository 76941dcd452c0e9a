"""Batch execution over dictionary-encoded ids: the one BGP executor.

("Efficiently Charting RDF" is the shape: a chart is a small aggregate over
a large scan, and it only becomes interactive when it is answered over
encoded ids end to end.) A whole basic graph pattern executes as a pipeline
of **id batches** — ``(n,)`` int64 numpy columns per variable — against an
:class:`~repro.store.base.IdScanSource`, and terms are decoded only for the
rows and variables that leave the engine (*late materialization*). Every
source is one: :func:`~repro.store.base.as_id_scan_source` hands back the
store itself (memory, cracking, paged) or an encoding adaptor over its
``triples()`` (federation, remote endpoints, plain graphs, test doubles),
so there is nothing to choose between and no option that chooses.

**One join: scan, then probe, in optimizer order.** The first pattern is
scanned; each further pattern extends every batch by an index probe. The
star shape, one shared and one free variable against a source that offers
``probe_ids``, hands over the batch's key column as it is: one binary
search per row, and the batch is reused whole when every row matched once
(else rows repeat by their match counts). A pattern whose only variable
is already bound — a pure constraint, ``?s rdf:type ex:C`` after ``?s`` is
known — is one ``distinct_ids`` run and a membership mask over the batch.
Other shapes are probed once per distinct shared key (``np.unique``) and
expanded by a ragged gather. Rows keep input order on every path.
Stars, chains and cycles all run this way; what the optimizer's order
decides is which constraint is scanned and which become masks.

**Filters are masks, not a row loop.** Each FILTER pushed into the BGP is
applied inside the batch loop, right after the stage that binds its last
variable, so later probes and the decode only see surviving rows. The
shapes that are provably safe in id space — ``?v <op> number`` against the
dictionary's shared numeric value column, ``?x = / != / IN`` constant
terms by id, ``&&`` of those — never decode anything (``filter=id[...]``
in EXPLAIN). Everything else, and any batch whose column holds a value the
value column cannot stand in for, keeps row semantics through
:func:`~repro.sparql.physical.filter_passes`, evaluated once per distinct
combination of the filter's variables (``filter=row[...]``). A mask never
reorders rows, so streamed prefixes see the same order as before.

**The batch protocol continues above the BGP, to the wire.**
``execute_batches`` (:class:`~repro.sparql.physical.PhysicalOperator`)
hands the filtered id batches on undecoded. A plain-variable ``ProjectOp``
and a ``SliceOp`` pass them through (column pick, array slice), so a
listing — ``Project[→Slice]→VectorizedBGP``, every SELECT a user pages
through — leaves the engine as id columns and its terms are first touched
by the serializer (:mod:`repro.sparql.results`), once per delivered cell.
Two operators answer chart-shaped queries from the same batches without
materializing rows:

* :class:`BatchAggregateOp` — GROUP BY on id columns (``np.unique``),
  COUNT by ``bincount``, SUM/AVG/MIN/MAX over the value column, COUNT
  DISTINCT by unique ``(group, id)`` pairs; only the group-key terms of
  the output rows are decoded.
* :class:`TopKOp` — ``ORDER BY ?v [DESC] LIMIT k`` candidates by
  ``np.partition`` on the value column (ties with the k-th kept); only
  the candidates are decoded and handed to the ordinary ``SortOp``.

Both fall back to row semantics when the data turns out not to fit (a
non-numeric value under SUM, an ordering column with strings): the rows
are decoded once and go through ``AggregateOp`` / ``SortOp`` unchanged.

The streaming pull interface is preserved: a :class:`VectorizedBGP` *is* a
:class:`~repro.sparql.physical.PhysicalOperator` whose ``execute`` yields
decoded ``Binding`` rows (the row adaptor over the same batches) for the
row operators above it — ``Distinct``, ``Sort``, joins, ``Extend``,
expression projections — so LIMIT pushdown, budgets and tracing compose
unchanged. The scan starts with a
:data:`~repro.store.base.FIRST_BATCH_SIZE`-row chunk that doubles up to
the batch size, so a ``LIMIT k`` consumer that stops pulling has expanded
hundreds of rows, not a full batch per pattern; what it cannot bound is
the source's own first read (one ``match_id_batches`` batch, or a whole
constraint run).

**The first stage can be a sample.** That same starting point — the scan
of the first pattern — is the one place every solution of a BGP descends
from, so drawing ``m`` of its ``N`` rows uniformly
(:meth:`VectorizedBGP.sample_first_stage`) keeps each solution with
probability ``m / N``, with ``N`` read off the source. The shed tier
(:mod:`repro.server.sketch`) answers aggregates from such a stream;
nothing else asks, and an execution that was not asked is untouched.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..rdf.terms import Literal, Term, Variable
from ..store.base import DEFAULT_BATCH_SIZE, FIRST_BATCH_SIZE, IdScanSource, unique_ids
from ..store.dictionary import VALUE_EXACT_INT, VALUE_FLOAT, TermDictionary
from .expr import (
    Binding,
    ExprError,
    expression_variables,
    group_key,
    numeric,
    to_term,
)
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
    AggregateOp,
    Batch,
    EvalStats,
    PhysicalOperator,
    filter_passes,
)
from .plan import _canonical_expression

__all__ = [
    "FIRST_BATCH_SIZE",
    "BatchAggregateOp",
    "TopKOp",
    "VectorScan",
    "VectorizedBGP",
    "plan_batch_aggregate",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: Column numbering the rows of a first stage that was asked for a sample,
#: so the rows descending from one of them can be counted (the name is not
#: a SPARQL variable name, so it collides with nothing).
_SEED = Variable("first-stage row")
# Existence-probe match stubs: one row / zero rows, no free-variable columns.
_EXISTS = np.empty((1, 0), dtype=np.int64)
_ABSENT = np.empty((0, 0), dtype=np.int64)


class _Resolved(NamedTuple):
    """A triple pattern with the ambient binding substituted in.

    ``ids`` holds a dictionary id per position (``None`` = free);
    ``var_slots`` maps each *distinct* free variable to its first position;
    ``dup_slots`` lists position pairs that must be equal (a variable
    repeated inside one pattern).
    """

    ids: tuple[int | None, int | None, int | None]
    var_slots: tuple[tuple[int, Variable], ...]
    dup_slots: tuple[tuple[int, int], ...]

    def variables(self) -> list[Variable]:
        return [variable for _, variable in self.var_slots]


def _resolve_pattern(
    pattern: TriplePatternNode, binding: Binding, source: IdScanSource
) -> _Resolved | None:
    """Substitute binding + dictionary ids; ``None`` = provably empty."""
    dictionary = source.dictionary
    ids: list[int | None] = []
    var_slots: list[tuple[int, Variable]] = []
    dup_slots: list[tuple[int, int]] = []
    first_seen: dict[Variable, int] = {}
    for position, term in enumerate(
        (pattern.subject, pattern.predicate, pattern.object)
    ):
        if isinstance(term, Variable):
            bound = binding.get(term)
            if bound is not None:
                term_id = dictionary.lookup(bound)
                if term_id is None:
                    return None
                ids.append(term_id)
            elif term in first_seen:
                ids.append(None)
                dup_slots.append((first_seen[term], position))
            else:
                ids.append(None)
                var_slots.append((position, term))
                first_seen[term] = position
        else:
            term_id = dictionary.lookup(term)
            if term_id is None:
                return None
            ids.append(term_id)
    return _Resolved(
        (ids[0], ids[1], ids[2]), tuple(var_slots), tuple(dup_slots)
    )


def _ragged_gather(
    counts: np.ndarray, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-key match lists onto per-row output positions.

    Given ``counts[k]`` matches for key ``k`` and ``inverse[i]`` = key of
    input row ``i``, returns ``(row_index, match_index)``: for every output
    row, which input row it extends and which slot of the concatenated
    match arrays it takes. Pure integer arithmetic — no Python loop.
    """
    counts_per_row = counts[inverse]
    total = int(counts_per_row.sum())
    row_index = np.repeat(np.arange(len(inverse)), counts_per_row)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    starts = np.repeat(offsets[inverse], counts_per_row)
    bases = np.cumsum(counts_per_row) - counts_per_row
    match_index = starts + np.arange(total) - np.repeat(bases, counts_per_row)
    return row_index, match_index


def _distinct_keys(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of aligned id columns: ``(keys (k, m), inverse (n,))``.

    The grouping primitive shared by the probe join (one store probe per
    distinct key), the row-semantics filter (one evaluation per distinct
    combination) and GROUP BY.
    """
    if len(columns) == 1:
        unique, inverse = np.unique(columns[0], return_inverse=True)
        return unique[:, None], inverse
    keys, inverse = np.unique(
        np.stack(columns, axis=1), axis=0, return_inverse=True
    )
    return keys, inverse.reshape(-1)


def _compress(batch: Batch, mask: np.ndarray) -> Batch:
    """The rows of ``batch`` where ``mask`` holds, in their original order."""
    count = int(np.count_nonzero(mask))
    if count == batch.count:
        return batch
    return Batch(
        {variable: column[mask] for variable, column in batch.columns.items()},
        count,
    )


def _in_run(ids: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Which of ``ids`` occur in ``run`` (sorted, unique): a binary search
    each, where ``np.isin`` would sort both sides first."""
    if not len(run):
        return np.zeros(len(ids), dtype=bool)
    slots = np.minimum(np.searchsorted(run, ids), len(run) - 1)
    return run[slots] == ids


# --------------------------------------------------------------------------- #
# FILTERs in id space
# --------------------------------------------------------------------------- #

# A compiled predicate: mask over the batch, or None when this batch holds
# a value the id-space form cannot decide (row semantics take over).
_Predicate = Callable[[dict[Variable, np.ndarray], TermDictionary], "np.ndarray | None"]

_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
}
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

    def __init__(self, bgp: "VectorizedBGP", binding: Binding) -> None:
        self.bgp = bgp
        self.binding = binding
        self.pending = list(bgp._filters)
        self.bound: set[Variable] = set(binding)

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
        return self.bgp._apply_filters(batches, ready, self.binding)


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

    def __init__(
        self,
        pattern: TriplePatternNode,
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(stats, estimate)
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

    def _run(self, binding: Binding) -> Iterator[Binding]:  # pragma: no cover
        raise AssertionError("VectorScan only executes inside a VectorizedBGP")


class VectorizedBGP(PhysicalOperator):
    """One BGP component executed as batched columnar operators over ids.

    Two ways out: ``execute_batches`` yields the filtered id batches (the
    batch protocol ``ProjectOp`` / ``SliceOp`` continue and
    :class:`BatchAggregateOp` / :class:`TopKOp` consume), and ``execute``
    is the row adaptor over the same batches for every other consumer.
    ``decode_variables`` (when not ``None``) is the
    late-materialization contract of the row adaptor: only those variables
    are decoded and kept in output rows — the builder passes the
    projection-pruned set, and the output is then exactly what
    ``Prune(BGP)`` would have produced. Filters never need decoding here:
    they are applied to the id batches (module docstring).
    """

    name = "VectorizedBGP"

    def __init__(
        self,
        source: IdScanSource,
        patterns: tuple[TriplePatternNode, ...],
        filters: tuple[Expression, ...],
        decode_variables: frozenset[Variable] | None,
        stats: EvalStats,
        estimate: float | None,
        pattern_estimates: Iterable[float | None],
    ) -> None:
        scans = tuple(
            VectorScan(pattern, stats, pattern_estimate)
            for pattern, pattern_estimate in zip(patterns, pattern_estimates)
        )
        super().__init__(stats, estimate, scans)
        self.source = source
        self.patterns = patterns
        self._filters = [_Filter(expression) for expression in filters]
        self.decode_variables = decode_variables
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

        The stage a BGP starts from — the scan of its first pattern — hands
        on at most ``rows`` of its ``N`` rows, drawn uniformly without
        replacement by a generator seeded with ``seed``, in random order
        and in ``passes`` equal chunks: every prefix of the output is
        itself a uniform sample. Every solution descends from exactly one
        first-stage row, so it is kept with probability ``rows / N``. ``N``
        is read off the source (the length of the scan); :attr:`sampled`
        reports ``(rows handed on, N)`` as execution proceeds and
        :attr:`fanout` the most solutions one first-stage row led to. With
        ``N <= rows`` and one pass nothing is drawn: the execution is the
        unsampled one, row for row.
        """
        self._sample = (rows, passes, seed)

    def detail(self) -> str:
        parts = []
        if self.sampled is not None and self.sampled[0] < self.sampled[1]:
            parts.append("sample=%d/%d" % self.sampled)
        if self._filters:
            parts.append("filter=" + ",".join(f.describe() for f in self._filters))
        if self.decode_variables is not None:
            decoded = ",".join(sorted(f"?{v}" for v in self.decode_variables))
            parts.append(f"decode={decoded or '∅'}")
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

    def _run(self, binding: Binding) -> Iterator[Binding]:
        return self.rows(self._batches(binding), binding)

    def batch_dictionary(self) -> TermDictionary:
        return self.source.dictionary

    def _batches(self, binding: Binding) -> Iterator[Batch]:
        resolved: list[_Resolved] = []
        for pattern in self.patterns:
            one = _resolve_pattern(pattern, binding, self.source)
            if one is None:  # a bound term missing from the dictionary
                return iter(())
            resolved.append(one)

        stages = _FilterStages(self, binding)
        batches: Iterator[Batch] | None = None
        for scan, one in zip(self.children, resolved):
            stage = (
                self._scan(scan, one) if batches is None
                else self._probe(batches, scan, one)
            )
            batches = stages.after(self._timed(scan, stage), one.variables())
        batches = stages.after(batches, None)
        if self._sample is not None:
            batches = self._solutions_per_row(batches)
        return batches

    # -- filters -------------------------------------------------------------

    def _apply_filters(
        self, batches: Iterator[Batch], filters: list[_Filter], binding: Binding
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
                    mask = self._row_mask(one, batch, binding)
                batch = _compress(batch, mask)
                if not batch.count:
                    break
            if batch.count:
                yield batch

    def _row_mask(self, one: _Filter, batch: Batch, binding: Binding) -> np.ndarray:
        """Row semantics, once per distinct combination of the variables."""
        present = [v for v in one.variables if v in batch.columns]
        if not present:  # every variable is ambient-bound (or unbound)
            return np.full(batch.count, filter_passes(one.expression, binding))
        keys, inverse = _distinct_keys([batch.columns[v] for v in present])
        decode = self.source.dictionary.decode_batch
        decoded = [decode(keys[:, slot]) for slot in range(len(present))]
        verdicts = np.empty(len(keys), dtype=bool)
        for index, terms in enumerate(zip(*decoded)):
            row = dict(binding)
            row.update(zip(present, terms))
            verdicts[index] = filter_passes(one.expression, row)
        return verdicts[inverse]

    # -- scan + probe pipeline ----------------------------------------------

    def _scan(self, scan: VectorScan, one: _Resolved) -> Iterator[Batch]:
        """The first stage: every match of the first pattern."""
        scan.executions += 1
        self.stats.store_lookups += 1
        s, p, o = one.ids
        for raw in self._first_stage(self.source.match_id_batches(s, p, o)):
            if one.dup_slots:
                mask = np.ones(len(raw), dtype=bool)
                for left, right in one.dup_slots:
                    mask &= raw[:, left] == raw[:, right]
                raw = raw[mask]
            self._account_scan(scan, len(raw))
            if not len(raw):
                continue
            columns = {
                variable: raw[:, position] for position, variable in one.var_slots
            }
            if self._sample is not None:
                columns[_SEED] = np.arange(len(raw))
            yield Batch(columns, len(raw))
        scan.exhausted = True

    def _probe_matches(
        self,
        probe: list[int | None],
        free: tuple[tuple[int, Variable], ...],
        dup_slots: tuple[tuple[int, int], ...],
    ) -> np.ndarray:
        """Match array for one concrete probe: shape (matches, len(free))."""
        self.stats.store_lookups += 1
        s, p, o = probe
        if not free:
            for raw in self.source.match_id_batches(s, p, o, batch_size=1):
                if len(raw):
                    return _EXISTS
            return _ABSENT
        if len(free) == 1 and not dup_slots:
            run = self.source.distinct_ids(s, p, o, free[0][0])
            return run[:, None]
        rows = list(self.source.match_id_batches(s, p, o))
        if not rows:
            return np.empty((0, len(free)), dtype=np.int64)
        raw = np.concatenate(rows) if len(rows) > 1 else rows[0]
        if dup_slots:
            mask = np.ones(len(raw), dtype=bool)
            for left, right in dup_slots:
                mask &= raw[:, left] == raw[:, right]
            raw = raw[mask]
        return raw[:, [position for position, _ in free]]

    def _probe(
        self, batches: Iterator[Batch], scan: VectorScan, one: _Resolved
    ) -> Iterator[Batch]:
        """Index-probe join: extend each batch by one pattern's matches."""
        run: np.ndarray | None = None  # the existence probe's run, read once
        for batch in batches:
            scan.executions += 1
            shared_here = [
                (position, variable)
                for position, variable in one.var_slots
                if variable in batch.columns
            ]
            free = tuple(
                (position, variable)
                for position, variable in one.var_slots
                if variable not in batch.columns
            )
            # Existence probe: the pattern's only variable is already
            # bound, so it adds no column and only keeps or drops rows —
            # one sorted run of the ids it admits, one membership mask over
            # the batch (row order kept), instead of a probe per key.
            if len(shared_here) == 1 and not free and not one.dup_slots:
                position, variable = shared_here[0]
                if run is None:
                    self.stats.store_lookups += 1
                    run = self.source.distinct_ids(*one.ids, position)
                batch = _compress(batch, _in_run(batch.columns[variable], run))
                self._account_scan(scan, batch.count)
                if batch.count:
                    yield batch
                continue

            # Star expansion: the third position is bound, so ``probe_ids``
            # answers the key column as it is, one search per row.
            if (
                len(shared_here) == 1
                and len(free) == 1
                and not one.dup_slots
                and hasattr(self.source, "probe_ids")
            ):
                (key_at, key), ((value_at, variable),) = shared_here[0], free
                counts, values = self.source.probe_ids(
                    *one.ids, key_at, batch.columns[key], value_at
                )
                self.stats.store_lookups += 1
                self._account_scan(scan, len(values))
                if not len(values):
                    continue
                columns = dict(batch.columns)
                if not (counts == 1).all():
                    rows = np.repeat(np.arange(batch.count), counts)
                    columns = {v: column[rows] for v, column in columns.items()}
                columns[variable] = values
                yield Batch(columns, len(values))
                continue

            if shared_here:
                key_rows, inverse = _distinct_keys(
                    [batch.columns[v] for _, v in shared_here]
                )
            else:  # no shared variable: one probe serves the whole batch
                key_rows = np.empty((1, 0), dtype=np.int64)
                inverse = np.zeros(batch.count, dtype=np.int64)

            match_lists: list[np.ndarray] = []
            for key in key_rows:
                probe = list(one.ids)
                for (position, _), value in zip(shared_here, key):
                    probe[position] = int(value)
                # A repeated variable whose first occurrence just got bound
                # pins its other positions to the same id.
                for left, right in one.dup_slots:
                    if probe[left] is not None and probe[right] is None:
                        probe[right] = probe[left]
                    elif probe[right] is not None and probe[left] is None:
                        probe[left] = probe[right]
                match_lists.append(
                    self._probe_matches(probe, free, one.dup_slots)
                )
            counts = np.array([len(m) for m in match_lists], dtype=np.int64)
            row_index, match_index = _ragged_gather(counts, inverse)
            total = len(row_index)
            self._account_scan(scan, total)
            if not total:
                continue
            columns = {
                variable: column[row_index]
                for variable, column in batch.columns.items()
            }
            if free:
                concatenated = (
                    np.concatenate(match_lists)
                    if len(match_lists) > 1
                    else match_lists[0]
                )
                for slot, (_, variable) in enumerate(free):
                    columns[variable] = concatenated[match_index, slot]
            yield Batch(columns, total)

    # -- decode boundary -----------------------------------------------------

    def rows(self, batches: Iterable[Batch], binding: Binding) -> Iterator[Binding]:
        """Decode id batches into solution rows (the row adaptor)."""
        decode = self.source.dictionary.decode_batch
        keep = self.decode_variables
        ambient = (
            dict(binding)
            if keep is None
            else {v: t for v, t in binding.items() if v in keep}
        )
        for batch in batches:
            names: list[Variable] = []
            decoded: list[list[Term]] = []
            for variable, column in batch.columns.items():
                if keep is not None and variable not in keep:
                    continue
                unique_ids, inverse = np.unique(column, return_inverse=True)
                terms = decode(unique_ids)
                names.append(variable)
                decoded.append([terms[slot] for slot in inverse.tolist()])
            if not names:
                for _ in range(batch.count):
                    yield dict(ambient)
            elif ambient:
                for values in zip(*decoded):
                    row = dict(ambient)
                    row.update(zip(names, values))
                    yield row
            else:
                for values in zip(*decoded):
                    yield dict(zip(names, values))


# --------------------------------------------------------------------------- #
# Batch consumers above the BGP
# --------------------------------------------------------------------------- #


def _concat(batches: list[Batch], variables: Iterable[Variable]) -> Batch:
    """One batch holding ``variables`` of every input batch, in order."""
    count = sum(batch.count for batch in batches)
    columns = {
        variable: (
            np.concatenate([batch.columns[variable] for batch in batches])
            if batches
            else _EMPTY_IDS
        )
        for variable in variables
    }
    return Batch(columns, count)


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
        specs.append(
            _AggSpec(
                projection.variable, expression.name, argument.variable,
                expression.distinct,
            )
        )
    return tuple(group_vars), tuple(specs)


class BatchAggregateOp(AggregateOp):
    """GROUP BY / aggregates computed on id columns of a single BGP.

    Consumes :meth:`VectorizedBGP.execute_batches`; group keys are
    ``np.unique`` over id columns, aggregates run over the dictionary's
    numeric value column, and only the group-key terms of the output rows
    are ever decoded. When the data does not fit the value column (a
    non-numeric value under SUM/AVG/MIN/MAX, integers whose sum could
    leave float64's exact range) the collected columns are decoded once
    and grouped by the inherited row implementation, so the answer is the
    same either way and EXPLAIN names the reason.
    """

    name = "BatchAggregate"

    def __init__(
        self,
        child: VectorizedBGP,
        projections: tuple[Projection, ...],
        group_by: tuple[Expression, ...],
        group_vars: tuple[Variable, ...],
        specs: tuple[_AggSpec, ...],
        stats: EvalStats,
        estimate: float | None,
    ) -> None:
        super().__init__(child, projections, group_by, None, stats, estimate)
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

    def _run(self, binding: Binding) -> Iterator[Binding]:
        child: VectorizedBGP = self.child  # type: ignore[assignment]
        if any(variable in binding for variable in self._needed):
            # An ambient-bound variable is substituted into the patterns
            # and never becomes a column.
            self.fallback = "ambient binding"
            return super()._run(binding)
        collected = _concat(list(child.execute_batches(binding)), self._needed)
        rows = self._batch_rows(collected, child.source.dictionary)
        if rows is None:
            return self._aggregate(list(child.rows((collected,), binding)))
        return iter(rows)

    def _batch_rows(
        self, batch: Batch, dictionary: TermDictionary
    ) -> list[Binding] | None:
        total = batch.count
        if self.group_vars:
            if not total:
                return []
            keys, inverse = _distinct_keys(
                [batch.columns[v] for v in self.group_vars]
            )
        else:  # implicit single group, present even over no rows
            keys = np.empty((1, 0), dtype=np.int64)
            inverse = np.zeros(total, dtype=np.int64)
        groups = len(keys)
        counts = np.bincount(inverse, minlength=groups)

        key_terms = {
            variable: dictionary.decode_batch(keys[:, slot])
            for slot, variable in enumerate(self.group_vars)
        }
        outputs: list[tuple[Variable, list]] = []
        for spec in self.specs:
            if spec.function == "KEY":
                values = key_terms[spec.variable]
            elif spec.function == "COUNT" and not spec.distinct:
                # BGP variables are bound in every row: COUNT(?x) = COUNT(*)
                values = [to_term(n) for n in counts.tolist()]
            elif spec.function == "COUNT":
                values = self._count_distinct(
                    batch.columns[spec.variable], inverse, groups
                )
            else:
                values = self._numeric(
                    spec.function, batch.columns[spec.variable], inverse, counts,
                    dictionary,
                )
            if values is None:
                return None
            outputs.append((spec.alias, values))

        # Same group order as AggregateOp, so a LIMIT above sees the same
        # groups from either implementation.
        order = sorted(
            range(groups),
            key=lambda g: str(
                tuple(group_key(key_terms[v][g]) for v in self.group_vars)
            ),
        )
        return [
            {
                alias: values[g]
                for alias, values in outputs
                if values[g] is not None
            }
            for g in order
        ]

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
        self,
        function: str,
        ids: np.ndarray,
        inverse: np.ndarray,
        counts: np.ndarray,
        dictionary: TermDictionary,
    ) -> list[Term | None] | None:
        """SUM / AVG / MIN / MAX per group, typed as Python would type them."""
        groups = len(counts)
        if not len(ids):  # the implicit group over no rows
            return [to_term(0) if function == "SUM" else None] * groups
        values, kinds = dictionary.numeric_columns()
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
            return [
                to_term(v if f else int(v))
                for v, f in zip(sums.tolist(), any_float.tolist())
            ]
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
        winners = ordered[first].tolist()
        winner_is_float = is_float[by_group][first].tolist()
        return [
            to_term(v if f else int(v)) for v, f in zip(winners, winner_is_float)
        ]


class TopKOp(PhysicalOperator):
    """Candidate selection for ``ORDER BY ?v [DESC] LIMIT k`` over one BGP.

    Keeps, batch by batch, only the rows whose sort value is among the k
    best seen so far (every row tied with the k-th stays), decodes those
    and yields them in scan order; the ``SortOp`` / ``SliceOp`` above then
    order and cut them exactly as they would the full input. Selection is
    by the value column, which orders numbers the way ``term_sort_key``
    does; a column holding anything else is passed through whole.
    """

    name = "TopK"

    def __init__(
        self,
        child: VectorizedBGP,
        variable: Variable,
        descending: bool,
        k: int,
        stats: EvalStats,
    ) -> None:
        estimate = child.estimated_rows
        if estimate is not None:
            estimate = min(estimate, float(k))
        super().__init__(stats, estimate, (child,))
        self.child = child
        self.variable = variable
        self.descending = descending
        self.k = k
        self.fallback: str | None = None

    def detail(self) -> str:
        rendered = f"k={self.k} by ?{self.variable}"
        if self.descending:
            rendered += " DESC"
        if self.fallback is not None:
            rendered += f" fallback=all rows[{self.fallback}]"
        return rendered

    def _run(self, binding: Binding) -> Iterator[Binding]:
        child = self.child
        if self.variable in binding:  # substituted away: never a column
            self.fallback = "ambient binding"
            return child.execute(binding)
        return child.rows(self._candidates(binding), binding)

    def _candidates(self, binding: Binding) -> Iterator[Batch]:
        child = self.child
        dictionary = child.source.dictionary
        kept: Batch | None = None
        for batch in child.execute_batches(binding):
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
