"""The structured query log: ring semantics, serving context, JSONL mirror."""

import json
import threading

import pytest

from repro.obs import OBS
from repro.obs.querylog import (
    QUERYLOG_DIR_ENV,
    QUERYLOG_ENV,
    QueryLog,
    QueryRecord,
    ScanObservation,
)


def emit_simple(log: QueryLog, digest: str = "d0", **kwargs):
    defaults = dict(digest=digest, form="SELECT", strategy="iterator",
                    latency_ms=1.0)
    defaults.update(kwargs)
    return log.emit(**defaults)


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(QUERYLOG_ENV, raising=False)
        monkeypatch.delenv(QUERYLOG_DIR_ENV, raising=False)
        log = QueryLog()
        assert not log.enabled
        assert emit_simple(log) is None
        assert log.records() == []

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv(QUERYLOG_ENV, "1")
        assert QueryLog().enabled

    def test_mirror_dir_implies_enabled(self, monkeypatch, tmp_path):
        monkeypatch.delenv(QUERYLOG_ENV, raising=False)
        monkeypatch.setenv(QUERYLOG_DIR_ENV, str(tmp_path))
        assert QueryLog().enabled

    def test_explicit_zero_beats_mirror_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(QUERYLOG_ENV, "0")
        monkeypatch.setenv(QUERYLOG_DIR_ENV, str(tmp_path))
        assert not QueryLog().enabled

    def test_obs_reset_restores_env_default(self, monkeypatch):
        monkeypatch.delenv(QUERYLOG_ENV, raising=False)
        monkeypatch.delenv(QUERYLOG_DIR_ENV, raising=False)
        OBS.querylog.enabled = True
        OBS.reset()
        assert not OBS.querylog.enabled


class TestRing:
    def test_records_in_sequence_order(self):
        log = QueryLog(capacity=8, enabled=True)
        for index in range(5):
            emit_simple(log, digest=f"d{index}")
        assert [r.digest for r in log.records()] == [
            "d0", "d1", "d2", "d3", "d4"
        ]
        assert len(log) == 5
        assert log.dropped == 0

    def test_wraparound_keeps_newest(self):
        log = QueryLog(capacity=4, enabled=True)
        for index in range(10):
            emit_simple(log, digest=f"d{index}")
        kept = [r.digest for r in log.records()]
        assert kept == ["d6", "d7", "d8", "d9"]
        assert log.dropped == 6
        assert log.recorded_total == 10

    def test_filters(self):
        log = QueryLog(capacity=16, enabled=True)
        with log.serving(tenant="alice", service="s1"):
            emit_simple(log, digest="da")
        with log.serving(tenant="bob", service="s2"):
            emit_simple(log, digest="db")
        emit_simple(log, digest="da")
        assert len(log.records(tenant="alice")) == 1
        assert len(log.records(digest="da")) == 2
        assert len(log.records(service="s2")) == 1
        cutoff = log.records()[-1].ts
        assert [r.digest for r in log.records(since=cutoff)] == ["da"]
        assert len(log.records(since_seq=1)) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestServingContext:
    def test_attribution_and_tier_annotation(self):
        log = QueryLog(enabled=True)
        with log.serving(tenant="t1", interaction_class="interactive",
                         service="svc"):
            log.annotate_serving(tier="sampled")
            record = emit_simple(log)
        assert record.tenant == "t1"
        assert record.interaction_class == "interactive"
        assert record.tier == "sampled"
        assert record.service == "svc"
        # outside the scope nothing is attributed
        bare = emit_simple(log)
        assert bare.tenant is None and bare.tier is None

    def test_nested_scopes_innermost_wins(self):
        log = QueryLog(enabled=True)
        with log.serving(tenant="outer"):
            with log.serving(tenant="inner"):
                assert emit_simple(log).tenant == "inner"
            assert emit_simple(log).tenant == "outer"

    def test_annotate_outside_scope_is_noop(self):
        log = QueryLog(enabled=True)
        log.annotate_serving(tier="exact")  # must not raise
        assert emit_simple(log).tier is None

    def test_context_is_thread_local(self):
        log = QueryLog(enabled=True)
        seen = {}

        def other_thread():
            seen["context"] = log.current_serving()

        with log.serving(tenant="main-only"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["context"] is None


class TestRecordContent:
    def test_counters_duck_read(self):
        class Counters:
            store_lookups = 7
            scan_batches = 2
            scan_rows = 130
            solutions = 5

        log = QueryLog(enabled=True)
        record = emit_simple(log, counters=Counters())
        assert record.store_lookups == 7
        assert record.scan_batches == 2
        assert record.scan_rows == 130
        assert record.solutions == 5

    def test_trace_provider_fallback(self):
        log = QueryLog(enabled=True)

        class Context:
            trace_id = "ab" * 8

        log.trace_provider = lambda: Context()
        assert emit_simple(log).trace_id == "ab" * 8
        # an explicit id wins over the provider
        assert emit_simple(log, trace_id="ff" * 8).trace_id == "ff" * 8

    def test_cache_hit_helper(self):
        log = QueryLog(enabled=True)
        record = log.emit_cache_hit(digest="d", form="SELECT",
                                    latency_ms=0.2, solutions=9)
        assert record.cache_hit
        assert record.strategy == "cached"
        assert record.solutions == 9
        assert record.store_lookups == 0 and record.scan_rows == 0

    def test_roundtrip_through_dict(self):
        log = QueryLog(enabled=True)
        scans = [{"predicate": "<p>", "mask": "vbb", "est": 2.0,
                  "actual": 40, "executions": 1, "leading": True}]
        with log.serving(tenant="t", tier="exact"):
            record = emit_simple(log, scans=scans, complete=False)
        restored = QueryRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert restored.digest == record.digest
        assert restored.tenant == "t"
        assert not restored.complete
        assert restored.scans == (ScanObservation(
            predicate="<p>", mask="vbb", estimated=2.0, actual=40,
            executions=1, leading=True,
        ),)


class TestConcurrency:
    def test_mirror_under_concurrent_writers(self, monkeypatch, tmp_path):
        """The ring's own wraparound is tests/obs/test_ring.py's; here: the
        mirror keeps every record the ring drops, one line each."""
        monkeypatch.setenv(QUERYLOG_DIR_ENV, str(tmp_path))
        log = QueryLog(capacity=8, enabled=True)
        writers, per_writer = 4, 50

        def write(worker: int) -> None:
            with log.serving(tenant=f"w{worker}"):
                for index in range(per_writer):
                    emit_simple(log, digest=f"w{worker}-{index}")

        threads = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = writers * per_writer
        assert log.dropped == total - 8
        # the mirror has every record, each line valid JSON, no interleaving
        mirror = log.mirror_path
        assert mirror is not None
        lines = [
            json.loads(line)
            for line in open(mirror, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == total
        assert sorted(line["seq"] for line in lines) == list(range(total))
        assert log.mirror_errors == 0

    def test_mirror_error_is_counted_not_raised(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not dir")
        monkeypatch.setenv(QUERYLOG_DIR_ENV, str(blocker))
        log = QueryLog(enabled=True)
        record = emit_simple(log)
        assert record is not None  # the query path survived
        assert log.mirror_errors == 1


class TestReset:
    def test_reset_clears_ring_and_mirror_handle(self, monkeypatch, tmp_path):
        monkeypatch.setenv(QUERYLOG_DIR_ENV, str(tmp_path))
        log = QueryLog(capacity=4, enabled=True)
        emit_simple(log)
        assert log.mirror_path is not None
        log.reset()
        assert len(log) == 0
        assert log.recorded_total == 0
        assert log.mirror_path is None
        assert log.enabled  # env still implies enablement
