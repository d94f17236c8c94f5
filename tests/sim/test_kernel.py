"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Event, Process, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_priority_then_insertion(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=1)
        sim.schedule(1.0, lambda: fired.append("high"), priority=0)
        sim.schedule(1.0, lambda: fired.append("low2"), priority=1)
        sim.run()
        assert fired == ["high", "low", "low2"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        # Remaining event still pending.
        assert sim.peek() == 2.0

    def test_step_returns_false_when_drained(self):
        sim = Simulator()
        assert sim.step() is False

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestProcess:
    def test_periodic_ticks(self):
        sim = Simulator()
        ticks = []
        Process(sim, interval=2.0, body=ticks.append)
        sim.run(until=7.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        Process(sim, interval=2.0, body=ticks.append, start_delay=1.0)
        sim.run(until=6.0)
        assert ticks == [1.0, 3.0, 5.0]

    def test_stop_ends_ticks(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, interval=1.0, body=ticks.append)
        sim.run(until=2.5)
        process.stop()
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Process(sim, interval=0.0, body=lambda t: None)

    def test_event_ordering_is_deterministic(self):
        def run_once():
            sim = Simulator()
            out = []
            for i in range(20):
                sim.schedule(1.0, lambda i=i: out.append(i))
            sim.run()
            return out

        assert run_once() == run_once()


class TestDaemonEvents:
    """Daemon events observe the simulation without keeping it alive."""

    def test_open_ended_run_ignores_pending_daemons(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("work"))
        sim.schedule(0.5, lambda: fired.append("d"), daemon=True)
        sim.schedule(99.0, lambda: fired.append("late-d"), daemon=True)
        sim.run()
        # The daemon before the work fires; the one after does not.
        assert fired == ["d", "work"]

    def test_run_with_only_daemons_returns_immediately(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("d"), daemon=True)
        sim.run()
        assert fired == []
        assert sim.now == 0.0

    def test_bounded_run_still_fires_daemons(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("d"), daemon=True)
        sim.run(until=5.0)
        assert fired == ["d"]
        assert sim.now == 5.0

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bound_rejected(self, until):
        # A daemon monitor keeps a bounded run alive; the bound check
        # never fires for NaN or infinity, so the run would never end.
        sim = Simulator()
        Process(sim, 1.0, lambda now: None)
        with pytest.raises(ValueError, match="finite"):
            sim.run(until=until)
        assert sim.now == 0.0

    def test_daemon_periodic_process_does_not_wedge_run(self):
        sim = Simulator()
        ticks = []
        Process(sim, 1.0, ticks.append, start_delay=1.0)  # daemon default
        sim.schedule(3.5, lambda: None)
        sim.run()  # would never return if the process kept it alive
        assert sim.now == 3.5
        assert ticks == [1.0, 2.0, 3.0]

    def test_non_daemon_process_keeps_run_alive_until_stopped(self):
        sim = Simulator()
        holder = {}

        def body(now):
            if now >= 3.0:
                holder["proc"].stop()

        holder["proc"] = Process(
            sim, 1.0, body, start_delay=1.0, daemon=False
        )
        sim.run()
        assert sim.now == 3.0

    def test_cancelled_work_releases_open_ended_run(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        sim.schedule(1.0, event.cancel)
        sim.run()
        assert sim.now == 1.0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.schedule(1.0, lambda: None)
        sim.run()  # live count must not go negative and wedge the loop
        assert sim.now == 1.0

    def test_work_scheduled_by_daemon_still_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("work"))

        def tick(now):
            if now == 1.0:
                sim.schedule(0.5, lambda: fired.append("from-daemon"))

        Process(sim, 1.0, tick, start_delay=1.0)
        sim.run()
        assert fired == ["from-daemon", "work"]


class TestScheduleAtValidation:
    def test_past_time_raises_naming_the_call_and_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(ValueError) as excinfo:
            sim.schedule_at(3.0, lambda: None)
        message = str(excinfo.value)
        assert "schedule_at" in message
        assert "3.0" in message
        assert "5.0" in message  # the current clock, for debuggability

    def test_exactly_now_is_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.0, lambda: fired.append("now"))
        sim.run()
        assert fired == ["now"]


class TestScheduleMany:
    def test_matches_sequential_schedule_order(self):
        """Bulk insert must fire in the same total order as one-by-one."""
        delays = [3.0, 1.0, 2.0, 1.0, 3.0, 0.0, 2.0, 1.0]

        sequential = Simulator()
        fired_seq = []
        for index, delay in enumerate(delays):
            sequential.schedule(
                delay, lambda i=index: fired_seq.append(i)
            )
        sequential.run()

        bulk = Simulator()
        fired_bulk = []
        bulk.schedule_many(
            (delay, lambda i=index: fired_bulk.append(i))
            for index, delay in enumerate(delays)
        )
        bulk.run()

        assert fired_bulk == fired_seq
        assert bulk.now == sequential.now
        assert bulk.events_processed == sequential.events_processed

    def test_bulk_insert_mid_run_interleaves_correctly(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))

        def inject():
            fired.append("inject")
            sim.schedule_many(
                [
                    (1.0, lambda: fired.append("b1")),
                    (0.5, lambda: fired.append("b0")),
                    (6.0, lambda: fired.append("b2")),
                ]
            )

        sim.schedule(2.0, inject)
        sim.run()
        assert fired == ["inject", "b0", "b1", "late", "b2"]
        assert sim.now == 8.0

    def test_negative_delay_rejected_per_entry(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="negative delay"):
            sim.schedule_many([(1.0, lambda: None), (-0.5, lambda: None)])

    def test_small_batch_on_deep_queue_keeps_order(self):
        """The push-vs-heapify crossover must not change semantics."""
        sim = Simulator()
        fired = []
        for index in range(100):
            sim.schedule(
                float(index) + 10.0, lambda i=index: fired.append(i)
            )
        # Batch of 2 against a 100-deep queue takes the per-push path.
        sim.schedule_many(
            [(1.0, lambda: fired.append("a")), (2.0, lambda: fired.append("b"))]
        )
        sim.run()
        assert fired[:2] == ["a", "b"]
        assert fired[2:] == list(range(100))

    def test_daemon_batch_does_not_keep_run_alive(self):
        sim = Simulator()
        fired = []
        sim.schedule_many(
            [(10.0, lambda: fired.append("d"))], daemon=True
        )
        sim.schedule(1.0, lambda: fired.append("work"))
        sim.run()
        assert fired == ["work"]
        assert sim.now == 1.0

    def test_returns_events_that_can_cancel(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many(
            [(1.0, lambda: fired.append("a")), (2.0, lambda: fired.append("b"))]
        )
        events[1].cancel()
        sim.run()
        assert fired == ["a"]


class TestBatchDispatch:
    """run() dispatches same-instant events in one inner loop."""

    def test_same_instant_events_fire_in_priority_seq_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("p1"), priority=1)
        sim.schedule(1.0, lambda: fired.append("p0-first"), priority=0)
        sim.schedule(1.0, lambda: fired.append("p0-second"), priority=0)
        sim.run()
        assert fired == ["p0-first", "p0-second", "p1"]

    def test_callback_scheduling_same_instant_stays_in_order(self):
        """A zero-delay event scheduled mid-batch must respect priority."""
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            # Same instant, lower priority than the pending "last":
            # must fire before it regardless of insertion time.
            sim.schedule(0.0, lambda: fired.append("injected"), priority=1)

        sim.schedule(1.0, first, priority=0)
        sim.schedule(1.0, lambda: fired.append("last"), priority=2)
        sim.run()
        assert fired == ["first", "injected", "last"]

    def test_stop_mid_batch_halts_immediately(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, lambda: fired.append("after-stop"))
        sim.schedule(2.0, lambda: fired.append("later"))
        sim.run()
        assert fired == ["a"]
        sim.run()
        assert fired == ["a", "after-stop", "later"]

    def test_live_reaching_zero_mid_instant_stops_before_daemons(self):
        """Open-ended run returns as soon as real work drains, even if
        a daemon shares the final instant."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("work"), priority=0)
        sim.schedule(
            1.0, lambda: fired.append("daemon"), priority=1, daemon=True
        )
        sim.run()
        assert fired == ["work"]

    def test_until_boundary_respected_across_batches(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.schedule(3.0, lambda: fired.append("past"))
        sim.run(until=2.0)
        assert fired == ["a", "b"]
        assert sim.now == 2.0


class TestCancelAfterFire:
    """Cancelling an event that already executed must be inert."""

    def test_late_cancel_does_not_double_decrement_live(self):
        sim = Simulator()
        fired = []
        holder = {}

        def body():
            fired.append("tick")
            holder["event"].cancel()  # cancels itself *while firing*

        holder["event"] = sim.schedule(1.0, body)
        # A second pending job: if the live count double-decremented,
        # the open-ended run would end before this fires.
        sim.schedule(2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["tick", "second"]
        assert sim.now == 2.0

    def test_process_stop_from_own_tick_keeps_kernel_consistent(self):
        """A non-daemon Process stopping itself mid-tick cancels the
        event being executed; later runs must still work."""
        sim = Simulator()
        ticks = []
        holder = {}

        def body(now):
            ticks.append(now)
            if now >= 2.0:
                holder["proc"].stop()

        holder["proc"] = Process(
            sim, 1.0, body, start_delay=1.0, daemon=False
        )
        sim.schedule(5.0, lambda: ticks.append("tail"))
        sim.run()
        assert ticks == [1.0, 2.0, "tail"]
        # The kernel survived: schedule + run again works and the
        # live count never went negative (a fresh job keeps the
        # open-ended run alive exactly until it fires).
        sim.schedule(1.0, lambda: ticks.append("again"))
        sim.run()
        assert ticks[-1] == "again"

    def test_stop_racing_rearm_with_external_cancel(self):
        """stop() called by *another* event at the same instant as the
        process's tick must not corrupt the live count either way."""
        sim = Simulator()
        ticks = []
        proc = Process(sim, 1.0, ticks.append, start_delay=1.0, daemon=False)
        # Scheduled before the process re-arms, so at t=2 the tie
        # breaks by sequence: stop() fires *first* and cancels the
        # pending tick sharing the instant.
        sim.schedule(2.0, proc.stop)
        sim.schedule(4.0, lambda: ticks.append("tail"))
        sim.run()
        assert ticks == [1.0, "tail"]


class TestDefer:
    """End-of-instant callbacks: after every same-instant event, before
    the clock moves, never counted as events."""

    def test_runs_after_every_same_instant_event(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.defer(lambda: log.append(("deferred", sim.now)))
            # Scheduled by an event of this instant: still runs first.
            sim.schedule(0.0, lambda: log.append(("chained", sim.now)))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append(("second", sim.now)), priority=5)
        sim.schedule(2.0, lambda: log.append(("later", sim.now)))
        sim.run()
        assert log == [
            ("first", 1.0),
            ("chained", 1.0),
            ("second", 1.0),
            ("deferred", 1.0),
            ("later", 2.0),
        ]

    def test_runs_once_per_defer_in_order(self):
        sim = Simulator()
        log = []

        def burst():
            sim.defer(lambda: log.append("a"))
            sim.defer(lambda: log.append("b"))

        sim.schedule(1.0, burst)
        sim.run()
        assert log == ["a", "b"]

    def test_bounded_run_flushes_before_final_clock_jump(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.run(until=5.0)
        assert seen == [1.0]
        assert sim.now == 5.0

    def test_bounded_run_with_no_events_flushes_at_now(self):
        sim = Simulator()
        seen = []
        sim.defer(lambda: seen.append(sim.now))
        sim.run(until=3.0)
        assert seen == [0.0]
        assert sim.now == 3.0

    def test_bounded_run_flushes_before_stopping_at_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.schedule(9.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        assert seen == [1.0]

    def test_step_on_otherwise_empty_queue(self):
        sim = Simulator()
        seen = []
        sim.defer(lambda: seen.append(sim.now))
        assert sim.step() is False
        assert seen == [0.0]

    def test_step_flushes_before_advancing(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.schedule(2.0, lambda: seen.append("next"))
        assert sim.step()
        assert seen == []  # the instant is not over until the next look
        assert sim.step()
        assert seen == [1.0, "next"]

    def test_peek_flushes_and_reports_what_it_scheduled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.defer(lambda: sim.schedule(0.5, lambda: None)))
        sim.schedule(4.0, lambda: None)
        assert sim.step()
        assert sim.peek() == 1.5

    def test_zero_delay_event_dispatches_in_same_instant(self):
        sim = Simulator()
        log = []

        def deferred():
            log.append(("deferred", sim.now))
            sim.schedule(0.0, lambda: log.append(("zero", sim.now)))

        sim.schedule(1.0, lambda: sim.defer(deferred))
        sim.schedule(2.0, lambda: log.append(("later", sim.now)))
        sim.run()
        assert log == [("deferred", 1.0), ("zero", 1.0), ("later", 2.0)]

    def test_deferring_from_a_deferred_callback_runs_after_its_events(self):
        sim = Simulator()
        log = []

        def outer():
            sim.schedule(0.0, lambda: log.append("event"))
            sim.defer(lambda: log.append("inner"))

        sim.schedule(1.0, lambda: sim.defer(outer))
        sim.run()
        assert log == ["event", "inner"]

    def test_not_counted_as_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.defer(lambda: None))
        sim.defer(lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_keeps_open_ended_run_alive(self):
        sim = Simulator()
        log = []

        def last():
            log.append("last")
            sim.defer(lambda: sim.schedule(2.0, lambda: log.append("follow-up")))

        sim.schedule(1.0, last)
        # A daemon alone must not keep the run going.
        sim.schedule(10.0, lambda: log.append("daemon"), daemon=True)
        sim.run()
        assert log == ["last", "follow-up"]
        assert sim.now == 3.0

    def test_same_instant_daemon_does_not_end_open_ended_run(self):
        sim = Simulator()
        log = []

        def last():
            log.append("last")
            sim.defer(lambda: sim.schedule(2.0, lambda: log.append("follow-up")))

        sim.schedule(1.0, last)
        # Only a daemon is left at this instant once ``last`` has run;
        # the deferred work is still pending and must get to run.
        sim.schedule(1.0, lambda: log.append("daemon"), daemon=True)
        sim.run()
        assert log == ["last", "daemon", "follow-up"]
        assert sim.now == 3.0

    def test_open_ended_run_flushes_work_deferred_before_it(self):
        sim = Simulator()
        log = []
        sim.defer(lambda: sim.schedule(1.0, lambda: log.append("work")))
        sim.run()
        assert log == ["work"]
