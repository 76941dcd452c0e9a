"""The workload analyzer: aggregation, drift, regressions, CLI."""

import json

import pytest

from repro.obs.querylog import QueryRecord, ScanObservation
from repro.obs.workload import (
    WorkloadReport,
    analyze,
    load_records,
    main,
)


def record(seq, *, ts=None, digest="d0", latency=1.0, tenant=None,
           cache_hit=False, lookups=0, scan_rows=0, solutions=0,
           scans=(), trace_id=None, strategy="iterator"):
    return QueryRecord(
        sequence=seq, ts=float(seq if ts is None else ts), digest=digest,
        form="SELECT", strategy=strategy, latency_ms=latency,
        tenant=tenant, cache_hit=cache_hit, trace_id=trace_id,
        store_lookups=lookups, scan_rows=scan_rows, solutions=solutions,
        scans=tuple(scans),
    )


def leading_scan(est, actual, predicate="<p>", mask="vbb"):
    return ScanObservation(predicate=predicate, mask=mask, estimated=est,
                           actual=actual, executions=1, leading=True)


class TestLoadRecords:
    def test_files_dirs_and_garbage_lines(self, tmp_path):
        lines = [json.dumps(record(i).to_dict()) for i in range(3)]
        (tmp_path / "a.jsonl").write_text(
            lines[0] + "\n" + "not json\n" + lines[1] + "\n"
        )
        sub = tmp_path / "more"
        sub.mkdir()
        (sub / "b.jsonl").write_text(lines[2] + "\n")
        (sub / "ignored.txt").write_text("nope\n")
        records = load_records([str(tmp_path / "a.jsonl"), str(sub)])
        assert [r.sequence for r in records] == [0, 1, 2]
        assert load_records([str(tmp_path / "missing.jsonl")]) == []


class TestAggregations:
    @pytest.mark.parametrize("latencies, p50, p95", [
        ([1, 2], 1, 2),
        (range(1, 21), 10, 19),
        (range(1, 101), 50, 95),
    ])
    def test_percentiles_are_nearest_rank(self, latencies, p50, p95):
        (row,) = analyze([record(seq, latency=float(latency))
                          for seq, latency in enumerate(latencies)
                          ]).slow_digests()
        assert (row["p50_ms"], row["p95_ms"]) == (p50, p95)

    def test_by_tenant_attribution(self):
        report = analyze([
            record(0, tenant="a", latency=10, lookups=5, solutions=2),
            record(1, tenant="a", latency=20, cache_hit=True),
            record(2, tenant="b", latency=1, scan_rows=100),
            record(3, latency=2),
        ])
        tenants = report.by_tenant()
        assert tenants["a"]["queries"] == 2
        assert tenants["a"]["cache_hits"] == 1
        assert tenants["a"]["latency_ms"] == 30.0
        assert tenants["a"]["store_lookups"] == 5
        assert tenants["b"]["scan_rows"] == 100
        assert tenants["-"]["queries"] == 1
        assert list(tenants)[0] == "a"  # sorted by total latency

    def test_by_tenant_counts_sketched_answers(self):
        # One record per shed answer, grouped or not, its strategy naming
        # the sample; an exact answer from the same operators is not one.
        report = analyze([
            record(0, tenant="a", strategy="vectorized:binary+sample"),
            record(1, tenant="a", strategy="vectorized:wcoj-star+sample"),
            record(2, tenant="a", strategy="federated+sample"),
            record(3, tenant="a", strategy="vectorized:binary+agg"),
            record(4, tenant="b", strategy="cached"),
        ])
        tenants = report.by_tenant()
        assert tenants["a"]["queries"] == 4
        assert tenants["a"]["approximate"] == 3
        assert tenants["b"]["approximate"] == 0

    def test_slow_digests_ranked_by_total_latency(self):
        report = analyze(
            [record(i, digest="slow", latency=100) for i in range(3)]
            + [record(10 + i, digest="fast", latency=1) for i in range(5)],
            top=1,
        )
        rows = report.slow_digests()
        assert len(rows) == 1
        assert rows[0]["digest"] == "slow"
        assert rows[0]["count"] == 3
        assert rows[0]["total_ms"] == 300.0

    def test_slow_digest_prefers_executed_sample(self):
        rows = analyze([
            record(0, digest="d", latency=5),
            record(1, digest="d", latency=1, cache_hit=True),
        ]).slow_digests()
        assert rows[0]["strategy"] == "iterator"
        assert rows[0]["cache_hits"] == 1


class TestDrift:
    def test_ratio_distribution_from_leading_scans_only(self):
        inner = ScanObservation(predicate="<p>", mask="vbb", estimated=1.0,
                                actual=500, executions=40, leading=False)
        report = analyze([
            record(0, scans=[leading_scan(2.0, 200), inner]),
            record(1, scans=[leading_scan(2.0, 100)]),
        ])
        drift = report.drift()
        assert list(drift) == ["<p>|vbb"]
        assert drift["<p>|vbb"]["observations"] == 2
        assert drift["<p>|vbb"]["median"] == pytest.approx(75.0)

    def test_cache_hits_and_zero_estimates_excluded(self):
        report = analyze([
            record(0, cache_hit=True, scans=[leading_scan(1.0, 99)]),
            record(1, scans=[leading_scan(0.0, 99)]),
            record(2, scans=[leading_scan(None, 99)]),
        ])
        assert report.drift() == {}

    @staticmethod
    def marked(report):
        """The drift keys the text report flags as misestimated."""
        return [
            line.split(":")[0].strip()
            for line in report.render().splitlines()
            if line.endswith("<-- misestimated")
        ]

    def test_misestimate_marker_follows_significance(self):
        drifted = [record(i, scans=[leading_scan(1.0, 50)]) for i in range(3)]
        accurate = [
            record(10 + i, scans=[leading_scan(10.0, 11, predicate="<q>")])
            for i in range(3)
        ]
        report = analyze(drifted + accurate)
        assert self.marked(report) == ["<p>|vbb"]  # drifted: yes; 1.1x: no
        assert self.marked(analyze(drifted + accurate, significance=100.0)) == []

    def test_misestimate_marker_flags_overestimates_too(self):
        over = [record(i, scans=[leading_scan(100.0, 2)]) for i in range(3)]
        report = analyze(over)
        assert report.drift()["<p>|vbb"]["median"] == pytest.approx(0.02)
        assert self.marked(report) == ["<p>|vbb"]


class TestRegressions:
    def test_latency_shift_is_flagged(self):
        series = [record(i, latency=10) for i in range(4)]
        series += [record(4 + i, latency=40) for i in range(4)]
        flagged = analyze(series).regressions()
        assert len(flagged) == 1
        assert flagged[0]["digest"] == "d0"
        assert flagged[0]["ratio"] == pytest.approx(4.0)

    def test_stable_and_sparse_series_not_flagged(self):
        stable = [record(i, latency=10) for i in range(10)]
        sparse = [record(20 + i, digest="d1", latency=10 + 100 * i)
                  for i in range(3)]
        assert analyze(stable + sparse).regressions() == []

    def test_cache_hits_do_not_fake_a_regression(self):
        series = [record(i, latency=1, cache_hit=True) for i in range(4)]
        series += [record(4 + i, latency=10) for i in range(4)]
        assert analyze(series).regressions() == []


class TestReportOutput:
    def build(self):
        return analyze([
            record(0, tenant="a", latency=5,
                   scans=[leading_scan(1.0, 80)], trace_id="ab" * 8),
            record(1, tenant="a", latency=1, cache_hit=True),
            record(2, tenant="b", digest="d1", latency=2,
                   scans=[leading_scan(1.0, 90)]),
            record(3, tenant="b", digest="d1", latency=2,
                   scans=[leading_scan(1.0, 70)]),
        ])

    def test_to_dict_shape(self):
        payload = self.build().to_dict()
        assert payload["records"] == 4
        assert payload["trace_ids"] == ["ab" * 8]
        assert set(payload) >= {
            "by_tenant", "slow_digests", "drift", "digest_drift",
            "regressions",
        }
        assert "corrections" not in payload
        assert payload["drift"]["<p>|vbb"]["median"] == 80.0
        assert payload["digest_drift"]["d1"]["observations"] == 2
        json.dumps(payload)  # must be serializable as-is

    def test_render_mentions_the_essentials(self):
        text = self.build().render()
        assert "per-tenant attribution" in text
        assert "slowest plan digests" in text
        assert "estimate drift" in text
        assert "misestimated" in text


class TestCli:
    def write_log(self, tmp_path, records):
        path = tmp_path / "queries-1.jsonl"
        path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        )
        return path

    def test_json_output(self, tmp_path, capsys):
        self.write_log(tmp_path, [record(0, tenant="a"), record(1)])
        assert main(["--json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 2

    def test_tenant_and_since_filters(self, tmp_path, capsys):
        self.write_log(tmp_path, [
            record(0, ts=100, tenant="a"),
            record(1, ts=200, tenant="b"),
        ])
        assert main(["--json", "--tenant", "b", "--since", "150",
                     str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == 1

    def test_empty_log_exits_nonzero(self, tmp_path, capsys):
        assert main(["--json", str(tmp_path)]) == 1

    def test_text_report_default(self, tmp_path, capsys):
        self.write_log(tmp_path, [record(0)])
        assert main([str(tmp_path)]) == 0
        assert "workload: 1 records" in capsys.readouterr().out
