"""Progress events: fan-out, the flight tap, and subscriber failure isolation."""

from repro.obs import OBS, ProgressEmitter, ProgressEvent


class TestProgressEvent:
    def test_fraction_and_done(self):
        event = ProgressEvent("load", completed=3, total=4)
        assert event.fraction == 0.75
        assert ProgressEvent("load", 4, 4).fraction == 1.0
        assert ProgressEvent("load", 5).fraction is None
        assert "3/4" in str(ProgressEvent("load", 3, 4))


class TestEmitter:
    def test_no_subscribers_is_a_no_op(self):
        emitter = ProgressEmitter()
        assert emitter.emit("op", completed=1, total=2) is None

    def test_fan_out_and_latest(self):
        emitter = ProgressEmitter()
        seen: list[ProgressEvent] = []
        unsubscribe = emitter.subscribe(seen.append)
        emitter.emit("op", completed=1, total=3, detail="x")
        emitter.emit("op", completed=2, total=3)
        assert [e.completed for e in seen] == [1, 2]
        assert seen[0].attributes == {"detail": "x"}
        unsubscribe()
        unsubscribe()  # idempotent
        assert emitter.emit("op", completed=3, total=3) is None

    def test_subscriber_exception_is_counted_not_raised(self):
        errors: list[tuple[str, BaseException]] = []
        emitter = ProgressEmitter(
            error_counter=lambda site, exc: errors.append((site, exc))
        )

        def bad(event):
            raise RuntimeError("subscriber bug")

        seen = []
        emitter.subscribe(bad)
        emitter.subscribe(seen.append)
        emitter.emit("op", completed=1)  # must not raise
        assert len(seen) == 1  # later subscribers still served
        assert errors[0][0] == "progress.op"
        assert isinstance(errors[0][1], RuntimeError)

    def test_global_emitter_routes_errors_to_obs_counter(self):
        OBS.progress.subscribe(lambda e: 1 / 0)
        OBS.progress.emit("op", completed=1)
        counter = OBS.metrics.counter(
            "obs.errors", site="progress.op", exception="ZeroDivisionError"
        )
        assert counter.value == 1


class TestUnsubscribeDuringFanOut:
    def test_self_removal_mid_dispatch_skips_nobody(self):
        """A subscriber unsubscribing itself during fan-out must not make
        later subscribers miss the in-flight event or see it twice."""
        emitter = ProgressEmitter()
        first: list[int] = []
        later: list[int] = []

        def self_removing(event):
            first.append(event.completed)
            unsubscribe()

        unsubscribe = emitter.subscribe(self_removing)
        emitter.subscribe(lambda e: later.append(e.completed))

        emitter.emit("op", completed=1)
        emitter.emit("op", completed=2)
        # the remover saw only the event it removed itself during
        assert first == [1]
        # the later subscriber saw every event exactly once
        assert later == [1, 2]

    def test_removing_another_subscriber_mid_dispatch(self):
        """Removing a peer during fan-out still delivers the in-flight
        event to that peer (snapshot semantics), and never double-delivers."""
        emitter = ProgressEmitter()
        victim_seen: list[int] = []
        handles: dict[str, object] = {}

        emitter.subscribe(lambda e: handles["victim"]())  # remover runs first
        handles["victim"] = emitter.subscribe(
            lambda e: victim_seen.append(e.completed)
        )

        emitter.emit("op", completed=1)
        emitter.emit("op", completed=2)
        assert victim_seen == [1]  # in-flight delivery, then cleanly gone

    def test_concurrent_unsubscribe_never_corrupts_fan_out(self):
        import threading

        emitter = ProgressEmitter()
        deliveries: list[int] = []
        handles = [
            emitter.subscribe(lambda e: deliveries.append(e.completed))
            for _ in range(8)
        ]

        stop = threading.Event()

        def churn():
            while not stop.is_set():
                for handle in handles:
                    handle()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for i in range(200):
                emitter.emit("op", completed=i)  # must never raise
        finally:
            stop.set()
            thread.join()


class TestTaps:
    def test_taps_do_not_count_as_subscribers(self):
        emitter = ProgressEmitter()
        seen: list[ProgressEvent] = []
        emitter.tap(seen.append)
        assert not emitter.has_subscribers
        # guarded emitters stay on the no-listener fast path
        assert emitter.emit("op", completed=1) is None
        assert seen == []

    def test_taps_receive_published_events(self):
        emitter = ProgressEmitter()
        tapped: list[int] = []
        untap = emitter.tap(lambda e: tapped.append(e.completed))
        emitter.subscribe(lambda e: None)  # a real listener opens the gate
        emitter.emit("op", completed=1)
        untap()
        untap()  # idempotent
        emitter.emit("op", completed=2)
        assert tapped == [1]

    def test_global_flight_tap_records_published_progress(self):
        OBS.progress.subscribe(lambda e: None)
        OBS.progress.emit("load", completed=3, total=10)
        entries = [e for e in OBS.flight.entries() if e.kind == "progress"]
        assert entries and entries[-1].name == "load"
        assert entries[-1].attributes == {"completed": 3, "total": 10}

    def test_progressive_cadence_budget_measures_gaps(self):
        OBS.progress.subscribe(lambda e: None)
        base = 1_000_000_000
        OBS.progress.publish(
            ProgressEvent("agg", 1, 10, monotonic_ns=base)
        )
        OBS.progress.publish(  # 2.5 s after the previous update: violation
            ProgressEvent("agg", 2, 10, monotonic_ns=base + 2_500_000_000)
        )
        entry = OBS.budgets.report().for_class("progressive")
        assert entry.count == 1  # gaps, not events
        assert entry.violations == 1
