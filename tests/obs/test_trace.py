"""Span tracing: nesting, suspension, thread safety, no-op path."""

import threading
import time

import pytest

from repro.obs import (
    NOOP_SPAN,
    OBS,
    Span,
    SpanRecorder,
    Tracer,
    trace_query,
    traced_iter,
)


class TestSpanBasics:
    def test_duration_accumulates_only_active_time(self):
        span = Span("work")
        time.sleep(0.002)
        span.pause()
        paused_at = span.duration_ns
        time.sleep(0.01)
        assert span.duration_ns == paused_at  # clock stopped while paused
        span.resume()
        span.end()
        assert span.finished
        assert span.duration_ns >= paused_at
        # the end time includes the suspension; the duration does not
        assert span.end_ns - span.start_ns > span.duration_ns

    def test_end_is_idempotent(self):
        span = Span("once")
        span.end()
        frozen = span.duration_ns
        time.sleep(0.001)
        span.end()
        assert span.duration_ns == frozen

    def test_manual_span_carries_given_duration(self):
        span = Span.manual("op.Scan", 2_500_000, rows=7)
        assert span.finished
        assert span.duration_ns == 2_500_000
        assert span.duration_ms == 2.5
        assert span.attributes["rows"] == 7

    def test_context_manager_records_exception_type(self):
        span = Span("boom")
        with pytest.raises(ValueError):
            with span:
                raise ValueError("nope")
        assert span.finished
        assert span.error == "ValueError"

    def test_walk_and_find(self):
        root = Span("root")
        child = Span("op.Scan")
        grandchild = Span("op.Scan")
        child.add_child(grandchild)
        root.add_child(child)
        assert [s.name for s in root.walk()] == ["root", "op.Scan", "op.Scan"]
        assert root.find("op.Scan") == [child, grandchild]


class TestTracerNesting:
    def test_with_blocks_nest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        roots = tracer.recorder.spans()
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]


class TestGeneratorSuspension:
    def test_traced_iter_charges_producer_not_consumer(self):
        tracer = Tracer(enabled=True)

        def produce():
            for i in range(3):
                time.sleep(0.002)
                yield i

        items = []
        for item in traced_iter(tracer, "producer", produce()):
            time.sleep(0.01)  # consumer time must not be charged
            items.append(item)
        assert items == [0, 1, 2]
        (span,) = tracer.recorder.spans()
        assert span.attributes["items"] == 3
        assert span.duration_ns >= 3 * 2_000_000
        # consumer slept ~30ms; active time must exclude it
        assert span.duration_ns < 15_000_000

    def test_spans_opened_between_items_do_not_nest_under_iterator(self):
        # The iterator span steps out of the ambient stack while suspended,
        # so work done between items nests under the *outer* span.
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            for _ in traced_iter(tracer, "producer", range(2)):
                with tracer.span("consume"):
                    pass
        names = [c.name for c in outer.children]
        assert names == ["producer", "consume", "consume"]
        producer = outer.children[0]
        assert producer.children == []

    def test_traced_iter_abandoned_generator_closes_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            iterator = traced_iter(tracer, "producer", range(100))
            next(iterator)
            iterator.close()  # LIMIT-style early termination
        producer = outer.children[0]
        assert producer.finished
        assert producer.attributes["items"] == 1


class TestRecorder:
    def test_bounded_with_drop_count(self):
        recorder = SpanRecorder(max_spans=2)
        for i in range(5):
            span = Span(f"s{i}")
            span.end()
            recorder.record(span)
        assert len(recorder) == 2
        assert recorder.dropped == 3
        # the newest are kept: a long-running process keeps showing new roots
        assert [span.name for span in recorder.spans()] == ["s3", "s4"]

    def test_drain_empties(self):
        recorder = SpanRecorder()
        span = Span("a")
        span.end()
        recorder.record(span)
        assert recorder.drain() == [span]
        assert len(recorder) == 0

    def test_thread_safety_of_concurrent_roots(self):
        tracer = Tracer(enabled=True, max_spans=100_000)
        per_thread = 200

        def work():
            for i in range(per_thread):
                with tracer.span("root"):
                    with tracer.span("child"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.recorder.spans()
        assert len(roots) == 8 * per_thread
        assert all(len(r.children) == 1 for r in roots)
        assert tracer.recorder.dropped == 0


class TestDisabledFastPath:
    def test_span_returns_shared_noop_singleton(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", detail="x")
        second = tracer.span("b")
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN  # zero allocation: one shared instance

    def test_noop_span_absorbs_the_full_api(self):
        with NOOP_SPAN as span:
            span.set_attribute("k", "v")
            span.add_child(Span("x"))
            span.pause()
            span.resume()
        assert NOOP_SPAN.attributes == {}
        assert list(NOOP_SPAN.walk()) == []
        assert NOOP_SPAN.duration_ns == 0

    def test_traced_iter_passthrough_when_disabled(self):
        tracer = Tracer(enabled=False)
        assert list(traced_iter(tracer, "x", range(3))) == [0, 1, 2]
        assert tracer.recorder.spans() == []

    def test_global_handle_disabled_by_default(self):
        assert OBS.tracer.span("anything") is NOOP_SPAN


class TestTraceQuery:
    def test_enables_temporarily_and_restores(self):
        assert not OBS.enabled
        with trace_query("session", user="t") as span:
            assert OBS.enabled
            with OBS.tracer.span("step"):
                pass
        assert not OBS.enabled
        assert span.finished
        assert [c.name for c in span.children] == ["step"]
        assert span.attributes["user"] == "t"


class TestTraceContext:
    def test_header_round_trip(self):
        from repro.obs import TraceContext

        context = TraceContext(trace_id="deadbeefcafe0123",
                               span_id="0123456789abcdef")
        headers = context.to_headers()
        assert headers == {
            "X-Repro-Trace": "deadbeefcafe0123",
            "X-Repro-Span": "0123456789abcdef",
        }
        assert TraceContext.from_headers(headers) == context

    def test_from_headers_is_case_insensitive(self):
        from repro.obs import TraceContext

        parsed = TraceContext.from_headers({
            "x-repro-trace": "ABC123", "X-REPRO-SPAN": "def456",
        })
        assert parsed == TraceContext("abc123", "def456")

    @pytest.mark.parametrize("headers", [
        {},
        {"X-Repro-Trace": "abc"},  # span missing
        {"X-Repro-Trace": "xyz", "X-Repro-Span": "abc"},  # non-hex
        {"X-Repro-Trace": "a" * 33, "X-Repro-Span": "abc"},  # too long
        {"X-Repro-Trace": "", "X-Repro-Span": ""},
    ])
    def test_malformed_headers_parse_to_none(self, headers):
        from repro.obs import TraceContext

        assert TraceContext.from_headers(headers) is None

    def test_children_inherit_the_root_trace_id(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.span_id != root.span_id
        assert root.trace_id is not None

    def test_remote_parent_continues_the_trace(self):
        from repro.obs import TraceContext

        context = TraceContext(trace_id="feed0000feed0000",
                               span_id="beef0000beef0000")
        tracer = Tracer(enabled=True)
        with tracer.span("continued", remote_parent=context) as span:
            assert span.trace_id == context.trace_id
            assert span.remote_parent_id == context.span_id
            assert span.span_id not in (context.span_id, "")

    def test_fresh_roots_get_distinct_trace_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_current_context_tracks_the_stack(self):
        tracer = Tracer(enabled=True)
        assert tracer.current_context() is None
        with tracer.span("root") as root:
            context = tracer.current_context()
            assert context is not None
            assert context.trace_id == root.trace_id
            assert context.span_id == root.span_id
        assert tracer.current_context() is None

    def test_disabled_tracer_has_no_context(self):
        tracer = Tracer(enabled=False)
        with tracer.span("noop"):
            assert tracer.current_context() is None
