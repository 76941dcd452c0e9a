"""Exporters: JSON lines, text trees, and BENCH_*.json merging."""

import json

from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    render_span_tree,
    span_to_dicts,
    spans_to_jsonl,
    telemetry_payload,
)
from repro.obs.export import merge_into_bench


def _tree() -> Span:
    root = Span.manual("sparql.query", 5_000_000, form="SelectQuery")
    join = Span.manual("op.Join", 4_000_000)
    join.add_child(Span.manual("op.Scan", 1_500_000))
    root.add_child(join)
    return root


class TestSpanDicts:
    def test_parent_links(self):
        records = span_to_dicts(_tree())
        by_id = {r["id"]: r for r in records}
        assert [r["name"] for r in records] == [
            "sparql.query", "op.Join", "op.Scan",
        ]
        assert records[0]["parent_id"] is None
        assert by_id[records[1]["id"]]["parent_id"] == records[0]["id"]
        assert by_id[records[2]["id"]]["parent_id"] == records[1]["id"]
        assert records[0]["attributes"] == {"form": "SelectQuery"}

    def test_jsonl_round_trips_and_ids_stay_unique(self):
        text = spans_to_jsonl([_tree(), _tree()])
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 6
        assert len({r["id"] for r in records}) == 6

    def test_error_spans_marked(self):
        span = Span("bad")
        try:
            with span:
                raise KeyError("x")
        except KeyError:
            pass
        (record,) = span_to_dicts(span)
        assert record["error"] == "KeyError"


class TestRenderTree:
    def test_indentation_and_durations(self):
        text = render_span_tree(_tree())
        lines = text.splitlines()
        assert lines[0].startswith("sparql.query  5.000ms")
        assert "[form=SelectQuery]" in lines[0]
        assert lines[1].startswith("  op.Join  4.000ms")
        assert lines[2].startswith("    op.Scan  1.500ms")


class TestPayloadAndMerge:
    def test_rollup_counts_by_span_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("query"):
                with tracer.span("op.Scan"):
                    pass
        registry = MetricsRegistry()
        registry.counter("cache.hits", cache="r").inc(2)
        payload = telemetry_payload(registry, tracer)
        assert payload["spans"]["query"]["count"] == 3
        assert payload["spans"]["op.Scan"]["count"] == 3
        assert payload["metrics"]["cache.hits{cache=r}"]["value"] == 2

    def test_merge_into_existing_bench_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"experiment": "x", "seconds": 1.5}))
        registry = MetricsRegistry()
        registry.counter("a").inc()
        merged = merge_into_bench(path, registry)
        on_disk = json.loads(path.read_text())
        assert on_disk == merged
        assert on_disk["experiment"] == "x"  # original keys preserved
        assert on_disk["telemetry"]["metrics"]["a"]["value"] == 1

    def test_merge_creates_missing_file(self, tmp_path):
        path = tmp_path / "BENCH_new.json"
        merge_into_bench(path, MetricsRegistry())
        assert "telemetry" in json.loads(path.read_text())


class TestStitching:
    def _federated_exports(self):
        """Client + server JSONL, the server continuing the client trace."""
        from repro.obs import TraceContext

        client = Tracer(enabled=True)
        with client.span("client.query", service="client"):
            with client.span("remote.call") as wire:
                context = wire.context()
        server = Tracer(enabled=True)
        with server.span("server.sparql", remote_parent=context,
                         service="repro-server:1") as handled:
            with server.span("op.Scan"):
                pass
        client_jsonl = spans_to_jsonl(client.recorder.spans())
        server_jsonl = spans_to_jsonl(server.recorder.spans())
        return client_jsonl, server_jsonl, context, handled

    def test_wire_fields_in_records(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        records = [json.loads(line) for line in
                   spans_to_jsonl(tracer.recorder.spans()).splitlines()]
        root, child = records
        assert root.get("parent_span_id") is None
        assert child["parent_span_id"] == root["span_id"]
        assert child["trace_id"] == root["trace_id"]

    def test_two_process_stitch_single_tree(self):
        from repro.obs.export import stitch_jsonl

        client_jsonl, server_jsonl, context, _ = self._federated_exports()
        roots = stitch_jsonl(client_jsonl, server_jsonl)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "client.query"
        # The remote interaction sits *under* the client's wire-call span.
        wire = root.find("remote.call")[0]
        assert [c.name for c in wire.children] == ["server.sparql"]
        remote = wire.children[0]
        assert remote.trace_id == context.trace_id
        assert remote.find("op.Scan")
        # One trace id across every stitched node.
        assert {node.trace_id for node in root.walk()} == {context.trace_id}

    def test_orphan_spans_become_roots(self):
        from repro.obs.export import stitch_jsonl

        _, server_jsonl, _, _ = self._federated_exports()
        roots = stitch_jsonl(server_jsonl)  # parent export absent
        assert [root.name for root in roots] == ["server.sparql"]

    def test_duplicate_span_ids_keep_first(self):
        from repro.obs.export import stitch_jsonl

        client_jsonl, server_jsonl, _, _ = self._federated_exports()
        once = stitch_jsonl(client_jsonl, server_jsonl)
        twice = stitch_jsonl(client_jsonl, server_jsonl, server_jsonl)
        assert len(once) == len(twice) == 1
        assert (len(list(once[0].walk()))
                == len(list(twice[0].walk())))

    def test_render_marks_wire_hops_once(self):
        from repro.obs.export import stitch_jsonl

        client_jsonl, server_jsonl, _, _ = self._federated_exports()
        root = stitch_jsonl(client_jsonl, server_jsonl)[0]
        text = render_span_tree(root)
        assert text.count("[wire -> repro-server:1]") == 1
        # op.Scan is untagged: it inherits the server's service, no hop.
        scan_line = [l for l in text.splitlines() if "op.Scan" in l][0]
        assert "[wire ->" not in scan_line


class TestPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        from repro.obs.export import render_prometheus

        registry = MetricsRegistry()
        registry.counter("server.responses", status=200).inc(3)
        registry.gauge("server.admission.depth").set(2)
        registry.histogram("op.latency_ms", buckets=(1.0, 10.0)).record(0.5)
        text = render_prometheus(registry)
        assert "# TYPE server_responses_total counter" in text
        assert 'server_responses_total{status="200"} 3' in text
        assert "# TYPE server_admission_depth gauge" in text
        assert "server_admission_depth 2" in text
        assert "# TYPE op_latency_ms histogram" in text
        assert 'op_latency_ms_bucket{le="1"} 1' in text
        assert 'op_latency_ms_bucket{le="+Inf"} 1' in text
        assert "op_latency_ms_count 1" in text

    def test_buckets_are_cumulative(self):
        from repro.obs.export import render_prometheus

        registry = MetricsRegistry()
        histogram = registry.histogram("t_ms", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.record(value)
        text = render_prometheus(registry)
        assert 't_ms_bucket{le="1"} 1' in text
        assert 't_ms_bucket{le="10"} 2' in text
        assert 't_ms_bucket{le="100"} 3' in text
        assert 't_ms_bucket{le="+Inf"} 4' in text

    def test_label_values_escaped(self):
        from repro.obs.export import render_prometheus

        registry = MetricsRegistry()
        registry.counter("errors", detail='say "hi"\nplease\\now').inc()
        text = render_prometheus(registry)
        assert r'detail="say \"hi\"\nplease\\now"' in text

    def test_one_type_line_per_family(self):
        from repro.obs.export import render_prometheus

        registry = MetricsRegistry()
        registry.counter("hits", cache="a").inc()
        registry.counter("hits", cache="b").inc()
        text = render_prometheus(registry)
        assert text.count("# TYPE hits_total counter") == 1
