"""Session replay -> budget report -> query-log dump, end to end.

The acceptance scenario for the interactive latency budgets: replaying a
generated pan/zoom workload yields a per-class compliance report, and a
deliberately slowed step produces a dump carrying the offending
span tree — without tracing having been enabled beforehand.
"""

import json
import time

import pytest

from repro.explore import ExplorationSession, Operation, OperationKind
from repro.obs import INTERACTIVE, NAVIGATION, OBS
from repro.workload.sessions import pan_zoom_trace


@pytest.fixture(autouse=True)
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior)


def session_from_trace(n_steps: int = 40, seed: int = 7) -> ExplorationSession:
    """A session whose operations mirror a generated pan/zoom trace."""
    trace = pan_zoom_trace(n_steps, seed=seed)
    session = ExplorationSession(user="workload")
    previous = trace[0]
    for step in trace[1:]:
        kind = (
            OperationKind.ZOOM
            if step.zoom_level != previous.zoom_level
            else OperationKind.PAN
        )
        session.operations.append(Operation(
            kind=kind,
            target=f"window@{step.x:.0f},{step.y:.0f}",
            sequence=len(session.operations),
        ))
        previous = step
    return session


class TestReplayBudgetReport:
    def test_replay_produces_per_class_compliance(self):
        session = session_from_trace()
        OBS.budgets.reset()  # only the replay itself in the report
        replayed = session.replay(lambda op: None)
        assert replayed == len(session)

        report = OBS.budgets.report()
        interactive = report.for_class(INTERACTIVE)
        # pans and zooms are all direct-manipulation steps
        assert interactive.count == replayed
        assert interactive.violations == 0
        assert interactive.compliance == 1.0
        assert report.overall_compliance == 1.0
        # and the report is presentable + serializable
        assert "interactive" in report.render()
        assert report.to_dict()["total_interactions"] == replayed

    def test_recording_live_operations_is_also_accounted(self):
        session = ExplorationSession(user="live")
        session.record(OperationKind.OVERVIEW)
        session.record(OperationKind.PIVOT, target="ex:country")
        report = OBS.budgets.report()
        assert report.for_class(INTERACTIVE).count == 1
        assert report.for_class(NAVIGATION).count == 1


class TestSlowInteractionDumps:
    def test_slow_replay_step_triggers_flight_dump(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        OBS.budgets.set_budget(INTERACTIVE, 5.0)  # tight budget, fast test
        session = session_from_trace(n_steps=10)
        slow_step = len(session) - 1

        def handler(operation: Operation) -> None:
            if operation.sequence == slow_step:
                time.sleep(0.02)  # 20 ms against a 5 ms budget

        session.replay(handler)

        assert OBS.querylog.dump_count == 1
        dump = OBS.querylog.dumps()[0]
        assert dump.reason.startswith("budget:interactive:session.replay.")
        # the offending entry identifies the exact step...
        assert dump.offending is not None
        assert dump.offending.violated
        assert dump.offending.attributes["sequence"] == slow_step
        # ...and yields a span tree even though tracing was off
        tree = dump.span_tree()
        assert tree.name.startswith("session.replay.")
        assert tree.duration_ms > 5.0
        assert tree.attributes["interaction_class"] == INTERACTIVE
        # the preceding fast steps are in the dumped window
        names = [record.route for record in dump.records]
        assert len(names) == len(session)

        # the dump also landed on disk for CI artifact upload
        files = sorted(tmp_path.glob("flight-*.jsonl"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        header = json.loads(lines[0])
        assert header["offending"]["violated"] is True
        assert "session.replay." in header["offending_span_text"]
        assert len(lines) == 1 + header["entries"]

    def test_traced_replay_dump_carries_real_span_tree(self):
        OBS.configure(enabled=True)
        OBS.budgets.set_budget(NAVIGATION, 5.0)
        session = ExplorationSession(user="traced")
        session.operations.append(
            Operation(kind=OperationKind.DRILL_DOWN, target="ex:City")
        )

        def handler(operation: Operation) -> None:
            with OBS.tracer.span("hetree.drill"):
                time.sleep(0.02)

        session.replay(handler)
        dump = OBS.querylog.dumps()[0]
        tree = dump.span_tree()
        # real traced tree: the operator span is a child of the interaction
        assert [child.name for child in tree.children] == ["hetree.drill"]
