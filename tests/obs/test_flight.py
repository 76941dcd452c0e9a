"""Flight dumps off the query log: snapshots, throttling, disk artifacts."""

import json

import pytest

from repro.obs import OBS, Span, record_error
from repro.obs.querylog import (
    DUMP_RECORDS,
    FLIGHT_DIR_ENV,
    KEPT_DUMPS,
    QueryLog,
    QueryRecord,
)


def note(log: QueryLog, name: str, **fields) -> QueryRecord:
    """One finished operation, as ``OBS.account`` appends it."""
    return log.append(route=name, latency_ms=fields.pop("latency_ms", 0.0),
                      **fields)


def blocked_dir(tmp_path, monkeypatch) -> None:
    """Point the dump directory at a file: every dump write fails."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(blocker))


class TestRing:
    def test_records_in_order(self):
        log = QueryLog(capacity=8)
        for i in range(5):
            note(log, f"e{i}")
        assert [r.route for r in log.records()] == [f"e{i}" for i in range(5)]
        assert len(log) == 5
        assert log.recorded_total == 5

    def test_wraparound_keeps_most_recent(self):
        log = QueryLog(capacity=4)
        for i in range(10):
            note(log, f"e{i}")
        kept = log.records()
        assert [r.route for r in kept] == ["e6", "e7", "e8", "e9"]
        assert [r.sequence for r in kept] == [6, 7, 8, 9]
        assert log.recorded_total == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestDumps:
    def test_dump_snapshots_ring(self):
        log = QueryLog(capacity=DUMP_RECORDS + 10)
        for i in range(DUMP_RECORDS + 5):
            note(log, f"e{i}")
        offending = note(log, "slow", latency_ms=500.0, violated=True)
        dump = log.dump("budget:test", offending=offending)
        assert dump.reason == "budget:test"
        # the newest DUMP_RECORDS records, the offender last
        assert dump.records == tuple(log.records()[-DUMP_RECORDS:])
        assert dump.records[-1] is offending
        assert dump.offending is offending
        assert log.dump_count == 1

    def test_auto_dumps_are_throttled(self):
        log = QueryLog()
        note(log, "x")
        assert log.dump("first", force=False) is not None
        assert log.dump("second", force=False) is None  # inside the second
        assert log.dump("explicit", force=True) is not None
        assert log.dump_count == 2

    def test_kept_dumps_are_bounded(self):
        log = QueryLog()
        for i in range(KEPT_DUMPS + 2):
            log.dump(f"r{i}")
        assert log.dump_count == KEPT_DUMPS + 2
        assert [d.reason for d in log.dumps()] == [
            f"r{i}" for i in range(2, KEPT_DUMPS + 2)]

    def test_jsonl_header_carries_offending_span_tree(self):
        log = QueryLog()
        offending = note(log, "facets.pivot", latency_ms=450.0,
                         interaction_class="navigation", violated=True)
        lines = log.dump("budget:navigation:facets.pivot",
                         offending=offending).to_jsonl().splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "budget:navigation:facets.pivot"
        assert header["entries"] == 1
        assert header["offending"]["route"] == "facets.pivot"
        assert header["offending_span_tree"][0]["name"] == "facets.pivot"
        assert "facets.pivot" in header["offending_span_text"]
        body = [QueryRecord.from_dict(json.loads(line))
                for line in lines[1:]]
        assert len(body) == header["entries"]
        assert body[0].violated is True
        assert body[0].route == "facets.pivot"

    def test_span_tree_synthesized_when_untraced(self):
        log = QueryLog()
        offending = note(log, "op", latency_ms=42.0,
                         interaction_class="interactive",
                         attributes={"sequence": 3})
        tree = log.dump("r", offending=offending).span_tree()
        assert tree.name == "op"
        assert tree.duration_ms == pytest.approx(42.0)
        assert tree.attributes["interaction_class"] == "interactive"
        assert tree.attributes["sequence"] == 3

    def test_span_tree_prefers_real_span(self):
        log = QueryLog()
        span = Span.manual("real", 1_000_000)
        dump = log.dump("r", offending=note(log, "op"), span=span)
        assert dump.span_tree() is span
        header = json.loads(dump.to_jsonl().splitlines()[0])
        assert header["offending_span_tree"][0]["name"] == "real"

    def test_dump_written_to_flight_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "dumps"))
        log = QueryLog()
        note(log, "x")
        dump = log.dump("disk-test")
        path = tmp_path / "dumps" / f"flight-{dump.sequence:04d}.jsonl"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["reason"] == "disk-test"
        assert QueryRecord.from_dict(json.loads(lines[1])).route == "x"

    def test_unwritable_flight_dir_is_swallowed(self, tmp_path, monkeypatch):
        blocked_dir(tmp_path, monkeypatch)
        log = QueryLog()
        assert log.dump("no-disk") is not None  # must not raise

    def test_write_failure_routes_to_error_counter(self, tmp_path,
                                                   monkeypatch):
        """A lost dump is counted, not silent: beside lost mirror lines."""
        blocked_dir(tmp_path, monkeypatch)
        log = QueryLog()
        log.dump("no-disk")
        assert log.mirror_errors == 1

    def test_write_failure_is_counted_without_redumping(
            self, tmp_path, monkeypatch):
        """Through the global handle a failing disk is counted once and
        dumps nothing more: the count is no error record."""
        blocked_dir(tmp_path, monkeypatch)
        note(OBS.querylog, "x")
        OBS.querylog.dump("disk-broken")
        assert OBS.querylog.mirror_errors == 1
        assert OBS.querylog.dump_count == 1  # no recursive second dump
        assert [r.route for r in OBS.querylog.records()] == ["x"]

    def test_reset(self):
        log = QueryLog()
        note(log, "x")
        log.dump("r", force=False)
        log.reset()
        assert log.records() == []
        assert log.dumps() == []
        assert log.dump_count == 0
        assert log.dump("again", force=False) is not None  # throttle reset


class TestErrorPath:
    def test_record_error_lands_in_flight_and_dumps(self):
        record_error("store.load", ValueError("bad triple"))
        records = OBS.querylog.records()
        assert records[-1].route == "store.load"
        assert records[-1].error == "ValueError"
        assert records[-1].attributes == {"message": "bad triple"}
        assert OBS.querylog.dump_count == 1
        dump = OBS.querylog.dumps()[0]
        assert dump.reason == "error:store.load"
        assert dump.offending is records[-1]

    def test_error_storm_produces_one_dump_per_window(self):
        for i in range(50):
            record_error("storm.site", RuntimeError(str(i)))
        assert OBS.querylog.dump_count == 1  # throttled
        assert OBS.querylog.recorded_total == 50  # every error recorded

    def test_error_label_cardinality_is_capped(self):
        for i in range(100):
            record_error(f"site.{i}", RuntimeError("x"))
        snapshot = OBS.metrics.snapshot()
        error_keys = [key for key in snapshot if key.startswith("obs.errors")]
        sites = {key for key in error_keys if "site=" in key}
        # 64 distinct sites plus the overflow fold
        assert len(sites) <= 65
        assert any("site=other" in key for key in error_keys)
