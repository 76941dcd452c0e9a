"""Exploration sessions: the operation sequence Section 2 defines.

"In an exploration scenario ... users perform a sequence of operations, in
which the result of each operation determines the formulation of the next
operation." :class:`ExplorationSession` records that sequence, tracks the
state of Shneiderman's mantra (overview → zoom/filter → details [118]),
and supports undo — the substrate both the preference learner and the
session-replay benchmarks build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..obs import INTERACTIVE, NAVIGATION, OBS

__all__ = [
    "OperationKind",
    "Operation",
    "MantraStage",
    "ExplorationSession",
    "interaction_class_of",
]


class OperationKind(Enum):
    QUERY = "query"
    OVERVIEW = "overview"
    ZOOM = "zoom"
    FILTER = "filter"
    PAN = "pan"
    DRILL_DOWN = "drill_down"
    ROLL_UP = "roll_up"
    DETAILS = "details"
    PIVOT = "pivot"
    SEARCH = "search"


class MantraStage(Enum):
    """Shneiderman's visual information-seeking mantra states."""

    OVERVIEW = "overview"
    ZOOM_FILTER = "zoom_filter"
    DETAILS = "details"


_STAGE_OF = {
    OperationKind.OVERVIEW: MantraStage.OVERVIEW,
    OperationKind.ROLL_UP: MantraStage.OVERVIEW,
    OperationKind.ZOOM: MantraStage.ZOOM_FILTER,
    OperationKind.FILTER: MantraStage.ZOOM_FILTER,
    OperationKind.PAN: MantraStage.ZOOM_FILTER,
    OperationKind.DRILL_DOWN: MantraStage.ZOOM_FILTER,
    OperationKind.PIVOT: MantraStage.ZOOM_FILTER,
    OperationKind.SEARCH: MantraStage.ZOOM_FILTER,
    OperationKind.QUERY: MantraStage.ZOOM_FILTER,
    OperationKind.DETAILS: MantraStage.DETAILS,
}


# Latency-budget class per operation kind: direct-manipulation steps must
# feel instantaneous; steps that load or derive new data get the looser
# navigation budget.
_INTERACTION_CLASS = {
    OperationKind.OVERVIEW: INTERACTIVE,
    OperationKind.ZOOM: INTERACTIVE,
    OperationKind.FILTER: INTERACTIVE,
    OperationKind.PAN: INTERACTIVE,
    OperationKind.DETAILS: INTERACTIVE,
    OperationKind.QUERY: NAVIGATION,
    OperationKind.DRILL_DOWN: NAVIGATION,
    OperationKind.ROLL_UP: NAVIGATION,
    OperationKind.PIVOT: NAVIGATION,
    OperationKind.SEARCH: NAVIGATION,
}


def interaction_class_of(kind: OperationKind) -> str:
    """The latency-budget class a session operation is held to."""
    return _INTERACTION_CLASS[kind]


@dataclass(frozen=True)
class Operation:
    """One logged step: what happened, over what, with what result size."""

    kind: OperationKind
    target: str = ""
    result_size: int | None = None
    sequence: int = 0


@dataclass
class ExplorationSession:
    """An append-only operation log with mantra-stage tracking and undo."""

    user: str = "anonymous"
    operations: list[Operation] = field(default_factory=list)
    _undone: list[Operation] = field(default_factory=list)

    def record(
        self,
        kind: OperationKind,
        target: str = "",
        result_size: int | None = None,
    ) -> Operation:
        with OBS.interaction(
            f"session.{kind.value}", interaction_class_of(kind),
            user=self.user, target=target,
        ) as act:
            operation = Operation(
                kind=kind,
                target=target,
                result_size=result_size,
                sequence=len(self.operations),
            )
            self.operations.append(operation)
            self._undone.clear()
            act.set_attribute("sequence", operation.sequence)
        return operation

    def undo(self) -> Operation:
        """Remove and return the latest operation (redo-able)."""
        if not self.operations:
            raise IndexError("nothing to undo")
        operation = self.operations.pop()
        self._undone.append(operation)
        return operation

    def redo(self) -> Operation:
        if not self._undone:
            raise IndexError("nothing to redo")
        operation = self._undone.pop()
        self.operations.append(operation)
        return operation

    @property
    def stage(self) -> MantraStage:
        """Where in the mantra the session currently sits."""
        if not self.operations:
            return MantraStage.OVERVIEW
        return _STAGE_OF[self.operations[-1].kind]

    def follows_mantra(self) -> bool:
        """Did the session reach details only after overview and zoom/filter?

        The property the mantra prescribes; sessions that jump straight to
        details are the anti-pattern overview-first design tries to avoid.
        """
        seen_overview = False
        seen_zoom = False
        for operation in self.operations:
            stage = _STAGE_OF[operation.kind]
            if stage is MantraStage.OVERVIEW:
                seen_overview = True
            elif stage is MantraStage.ZOOM_FILTER:
                seen_zoom = True
            elif stage is MantraStage.DETAILS and not (seen_overview and seen_zoom):
                return False
        return True

    def counts_by_kind(self) -> dict[OperationKind, int]:
        counts: dict[OperationKind, int] = {}
        for operation in self.operations:
            counts[operation.kind] = counts.get(operation.kind, 0) + 1
        return counts

    def replay(self, handler: Callable[[Operation], None]) -> int:
        """Feed every operation to ``handler`` (bench/session-simulation).

        Each step is budget-accounted under its kind's interaction class,
        so a replay over a workload trace yields a per-class
        :class:`~repro.obs.budget.BudgetReport` (``OBS.budgets.report()``).
        """
        for operation in self.operations:
            with OBS.interaction(
                f"session.replay.{operation.kind.value}",
                interaction_class_of(operation.kind),
                target=operation.target,
                sequence=operation.sequence,
            ):
                handler(operation)
        return len(self.operations)

    def __len__(self) -> int:
        return len(self.operations)
