"""Flight recorder: ring semantics, dumps, throttling, disk artifacts."""

import json

import pytest

from repro.obs import OBS, Span, record_error
from repro.obs.flight import FLIGHT_DIR_ENV, FlightEntry, FlightRecorder


def _obs_error_count(site: str) -> int:
    """Summed obs.errors counter value for one site label."""
    return sum(
        metric.value for metric in OBS.metrics
        if getattr(metric, "name", "") == "obs.errors"
        and dict(metric.labels).get("site") == site
    )


class TestRing:
    def test_records_in_order(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(5):
            recorder.record("note", f"e{i}")
        assert [e.name for e in recorder.entries()] == [f"e{i}" for i in range(5)]
        assert len(recorder) == 5
        assert recorder.recorded_total == 5

    def test_wraparound_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("note", f"e{i}")
        kept = recorder.entries()
        assert [e.name for e in kept] == ["e6", "e7", "e8", "e9"]
        assert [e.sequence for e in kept] == [6, 7, 8, 9]
        assert recorder.recorded_total == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_dumps=0)


class TestDumps:
    def test_dump_snapshots_ring(self):
        recorder = FlightRecorder(capacity=8)
        offending = recorder.record("interaction", "slow", duration_ms=500.0,
                                    violated=True)
        dump = recorder.dump("budget:test", offending=offending)
        assert dump.reason == "budget:test"
        assert dump.entries == tuple(recorder.entries())
        assert dump.offending is offending
        assert recorder.dump_count == 1

    def test_auto_dumps_are_throttled(self):
        recorder = FlightRecorder(auto_dump_interval_ms=60_000)
        recorder.record("note", "x")
        assert recorder.dump("first", force=False) is not None
        assert recorder.dump("second", force=False) is None  # inside window
        assert recorder.dump("explicit", force=True) is not None
        assert recorder.dump_count == 2

    def test_kept_dumps_are_bounded(self):
        recorder = FlightRecorder(max_dumps=2)
        for i in range(5):
            recorder.dump(f"r{i}")
        assert recorder.dump_count == 5
        assert [d.reason for d in recorder.dumps()] == ["r3", "r4"]

    def test_jsonl_header_carries_offending_span_tree(self):
        recorder = FlightRecorder()
        offending = recorder.record(
            "interaction", "facets.pivot", duration_ms=450.0,
            attributes={"interaction_class": "navigation"}, violated=True,
        )
        lines = recorder.dump("budget:navigation:facets.pivot",
                              offending=offending).to_jsonl().splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "budget:navigation:facets.pivot"
        assert header["entries"] == 1
        assert header["offending"]["name"] == "facets.pivot"
        assert header["offending_span_tree"][0]["name"] == "facets.pivot"
        assert "facets.pivot" in header["offending_span_text"]
        body = [json.loads(line) for line in lines[1:]]
        assert len(body) == header["entries"]
        assert body[0]["violated"] is True

    def test_span_tree_synthesized_when_untraced(self):
        entry = FlightEntry(
            kind="interaction", name="op", sequence=0, duration_ms=42.0,
            attributes={"interaction_class": "interactive"},
        )
        tree = entry.span_tree()
        assert tree.name == "op"
        assert tree.duration_ms == pytest.approx(42.0)
        assert tree.attributes["interaction_class"] == "interactive"

    def test_span_tree_prefers_real_span(self):
        span = Span.manual("real", 1_000_000)
        entry = FlightEntry(kind="interaction", name="op", sequence=0,
                            span=span)
        assert entry.span_tree() is span

    def test_dump_written_to_flight_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "dumps"))
        recorder = FlightRecorder()
        recorder.record("note", "x")
        dump = recorder.dump("disk-test")
        path = tmp_path / "dumps" / f"flight-{dump.sequence:04d}.jsonl"
        assert path.exists()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["reason"] == "disk-test"

    def test_unwritable_flight_dir_is_swallowed(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(blocker))
        recorder = FlightRecorder()
        assert recorder.dump("no-disk") is not None  # must not raise

    def test_write_failure_routes_to_error_counter(self, tmp_path,
                                                   monkeypatch):
        """A lost dump is counted, not silent: the standalone recorder
        reports through whatever error_counter is wired."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(blocker))
        counted: list[tuple[str, str]] = []
        recorder = FlightRecorder()
        recorder.error_counter = \
            lambda site, exc: counted.append((site, type(exc).__name__))
        recorder.dump("no-disk")
        assert counted == [("obs.flight.write", "FileExistsError")]

    def test_write_failure_bumps_obs_errors_without_redumping(
            self, tmp_path, monkeypatch):
        """Through the global handle the count lands on obs.errors — via
        the non-dumping path, so a failing disk cannot recurse."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(blocker))
        OBS.flight.record("note", "x")
        OBS.flight.dump("disk-broken")
        assert _obs_error_count("obs.flight.write") == 1
        assert OBS.flight.dump_count == 1  # no recursive second dump

    def test_reset(self):
        recorder = FlightRecorder()
        recorder.record("note", "x")
        recorder.dump("r")
        recorder.reset()
        assert recorder.entries() == []
        assert recorder.dumps() == []
        assert recorder.dump_count == 0


class TestErrorPath:
    def test_record_error_lands_in_flight_and_dumps(self):
        record_error("store.load", ValueError("bad triple"))
        entries = OBS.flight.entries()
        assert entries[-1].kind == "error"
        assert entries[-1].name == "store.load"
        assert entries[-1].attributes["exception"] == "ValueError"
        assert OBS.flight.dump_count == 1
        assert OBS.flight.dumps()[0].reason == "error:store.load"

    def test_error_storm_produces_one_dump_per_window(self):
        for i in range(50):
            record_error("storm.site", RuntimeError(str(i)))
        assert OBS.flight.dump_count == 1  # throttled

    def test_error_label_cardinality_is_capped(self):
        for i in range(100):
            record_error(f"site.{i}", RuntimeError("x"))
        snapshot = OBS.metrics.snapshot()
        error_keys = [key for key in snapshot if key.startswith("obs.errors")]
        sites = {key for key in error_keys if "site=" in key}
        # 64 distinct sites plus the overflow fold
        assert len(sites) <= 65
        assert any("site=other" in key for key in error_keys)
