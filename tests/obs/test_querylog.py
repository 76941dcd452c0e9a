"""The structured query log: ring semantics, request records, JSONL mirror."""

import json
import sys
import threading

import pytest

from repro.obs import INTERACTIVE, OBS
from repro.obs.querylog import (
    DUMP_RECORDS,
    QUERYLOG_DIR_ENV,
    QUERYLOG_ENV,
    QueryLog,
    QueryRecord,
    Runs,
    ScanObservation,
)
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.cached import CachedQueryEngine
from repro.store import MemoryStore

EX = "http://example.org/"


def emit_simple(log: QueryLog, digest: str = "d0", **kwargs):
    defaults = dict(digest=digest, form="SELECT", strategy="iterator",
                    latency_ms=1.0)
    defaults.update(kwargs)
    return log.emit(**defaults)


def request_record(log: QueryLog, runs: Runs | None = None, **fields):
    """One request's record, as a server writes it after the last byte."""
    defaults = dict(latency_ms=0.2, interaction_class="interactive",
                    route="server.sparql", status=200,
                    stages=(("read", 0.1), ("queue", 0.2)))
    defaults.update(fields)
    return log.append(runs, **defaults)


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
        request_record(log, digest="da", tenant="alice", service="s1",
                       trace_id="ab" * 8)
        request_record(log, digest="db", tenant="bob", service="s2")
        emit_simple(log, digest="da")
        assert len(log.records(tenant="alice")) == 1
        assert len(log.records(digest="da")) == 2
        assert len(log.records(service="s2")) == 1
        assert [r.digest for r in log.records(trace_id="ab" * 8)] == ["da"]
        cutoff = log.records()[-1].ts
        assert [r.digest for r in log.records(since=cutoff)] == ["da"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestServingContext:
    def test_attribution_and_tier_annotation(self):
        log = QueryLog(enabled=True)
        runs = Runs()
        log.collect(runs)
        assert emit_simple(log, digest="d1") is None  # into the request
        log.collect(None)
        record = request_record(log, runs, tenant="t1", tier="sampled",
                                service="svc")
        assert (record.tenant, record.tier, record.service) == (
            "t1", "sampled", "svc")
        assert record.interaction_class == "interactive"
        assert record.digest == "d1" and record.route == "server.sparql"
        assert record.stages == (("read", 0.1), ("queue", 0.2))
        assert log.records() == [record]  # the run wrote no record
        # outside a request nothing is attributed
        bare = emit_simple(log)
        assert bare.tenant is None and bare.tier is None

    def test_runs_in_one_request_add_up(self):
        class Counters:
            store_lookups, scan_batches, scan_rows, solutions = 1, 2, 30, 4

        log = QueryLog(enabled=True)
        runs = Runs()
        log.collect(runs)
        emit_simple(log, digest="member", counters=Counters(),
                    scans=[ScanObservation("<p>", "vbv", 9.0, 30, 1, True)])
        emit_simple(log, digest="whole", strategy="federated",
                    counters=Counters(), complete=False)
        log.collect(None)
        record = request_record(log, runs)
        assert record.digest == "whole" and record.strategy == "federated"
        assert record.scan_rows == 60 and record.solutions == 8
        assert len(record.scans) == 1 and not record.complete

    def test_emit_outside_a_request_appends(self):
        log = QueryLog(enabled=True)
        log.collect(None)
        assert emit_simple(log).route is None
        assert len(log) == 1

    def test_context_is_thread_local(self):
        log = QueryLog(enabled=True)
        seen = {}

        def other_thread():
            seen["record"] = emit_simple(log)

        log.collect(Runs())
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        log.collect(None)
        assert seen["record"] is not None  # appended, not collected


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

    def test_cached_engine_hit_record(self):
        OBS.querylog.enabled = True
        store = MemoryStore()
        for index in range(9):
            store.add(Triple(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                             Literal(index)))
        engine = CachedQueryEngine(store)
        query = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"
        engine.query(query)
        engine.query(query)
        record = OBS.querylog.records()[-1]
        assert record.cache_hit
        assert record.strategy == "cached"
        assert record.solutions == 9
        assert record.store_lookups == 0 and record.scan_rows == 0

    def test_roundtrip_through_dict(self):
        log = QueryLog(enabled=True)
        scans = [{"predicate": "<p>", "mask": "vbb", "est": 2.0,
                  "actual": 40, "executions": 1, "leading": True}]
        runs = Runs()
        log.collect(runs)
        emit_simple(log, scans=scans, complete=False)
        log.collect(None)
        shed = {"p95_ms": 142.0, "n": 64, "burn": 3.1, "peak_burn": 3.1}
        record = request_record(log, runs, tenant="t", tier="exact",
                                status=503, shed=shed)
        restored = QueryRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert (restored.route, restored.status, restored.stages,
                restored.shed) == ("server.sparql", 503, record.stages, shed)
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
        assert log.mirror_errors == 0
        log.reset()  # closes the mirror
        with open(mirror, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == total
        assert sorted(line["seq"] for line in lines) == list(range(total))

    def test_dumps_under_concurrent_accounting(self):
        """Eight threads account over budget while dumps fire: every dump
        is a clean snapshot, at most DUMP_RECORDS records in strictly
        increasing sequence, and no record is lost from the count."""
        OBS.budgets.set_budget(INTERACTIVE, 0.5)  # every 1 ms is over
        writers, per_writer = 8, 200
        dumps = []

        def account(worker: int) -> None:
            for index in range(per_writer):
                OBS.account(None, f"w{worker}", INTERACTIVE, 1.0,
                            OBS.budgets, attributes={"index": index})
                if index % 20 == 0:
                    dumps.append(OBS.querylog.dump(f"w{worker}-{index}"))

        threads = [threading.Thread(target=account, args=(worker,))
                   for worker in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert OBS.querylog.recorded_total == writers * per_writer
        assert len(dumps) == writers * per_writer // 20
        for dump in dumps + OBS.querylog.dumps():
            sequences = [record.sequence for record in dump.records]
            assert 0 < len(sequences) <= DUMP_RECORDS
            assert all(a < b for a, b in zip(sequences, sequences[1:]))
        assert len({dump.sequence for dump in dumps}) == len(dumps)

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
