"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim.engine import Simulator


def _sole_entry(sim):
    """The single scheduler entry of a one-event simulator."""
    (entry,) = sim._heap
    return entry


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_finite_delay_rejected(self):
        """Regression: NaN slipped past the `delay < 0` guard (NaN
        compares false against everything) and corrupted the heap."""
        sim = Simulator()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sim.schedule(bad, lambda: None)

    def test_non_finite_absolute_time_rejected(self):
        sim = Simulator()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.schedule_at(bad, lambda: None)

    def test_events_scheduled_counts_every_push(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.events_scheduled == 2  # cancellation does not un-count
        sim.run()
        assert sim.events_scheduled == 2

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def recurring(n):
            hits.append(sim.now)
            if n > 1:
                sim.schedule(1.0, recurring, n - 1)

        sim.schedule(1.0, recurring, 3)
        sim.run()
        assert hits == [1.0, 2.0, 3.0]


    def test_callback_can_schedule_ahead_of_pending_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.4, fired.append, "injected")

        sim.schedule(0.1, first)
        sim.schedule(0.9, fired.append, "last")
        sim.run()
        assert fired == ["first", "injected", "last"]


class TestRunLimits:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run(until=5.0)
        assert fired == [1]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_zero_max_events_runs_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run(max_events=0)
        assert fired == []
        assert sim.pending_events == 1

    def test_negative_max_events_rejected(self):
        """Regression: a negative budget was decremented forever, so the
        runaway guard ran unbounded."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(ValueError):
            sim.run(max_events=-1)
        assert fired == []
        sim.run()  # the rejected call left the simulator usable
        assert fired == [1]

    def test_nan_horizon_rejected(self):
        """Regression: no event time is ``> nan``, so a NaN horizon was
        silently no horizon at all - a self-rescheduling tick ran until
        the event budget (here the guard) stopped it."""
        sim = Simulator()

        def tick():
            sim.post(1.0, tick)

        sim.post(1.0, tick)
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=float("nan"), max_events=1000)
        assert sim.events_processed == 0
        # An infinite horizon stays legal: "until the queue empties".
        sim.run(until=float("inf"), max_events=3)
        assert sim.now == 3.0

    def test_budget_exhaustion_does_not_fast_forward_clock(self):
        """Regression: run(until=..., max_events=...) used to jump the
        clock to `until` even with events still pending before it, so
        the next run() moved time backwards."""
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            sim.schedule(t, fired.append, t)
        sim.run(until=10.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0  # not 10.0: events at 3..5 still pending

    def test_clock_monotone_across_budgeted_runs(self):
        sim = Simulator()
        times = []
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            sim.schedule(t, lambda: times.append(sim.now))
        sim.run(until=10.0, max_events=2)
        sim.run(until=10.0)
        assert times == sorted(times) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert sim.now == 10.0  # heap drained -> fast-forward is fine

    def test_budget_exhaustion_with_only_later_events_fast_forwards(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(20.0, fired.append, 2)
        sim.run(until=10.0, max_events=1)
        # The only remaining event lies beyond `until`, so advancing
        # the clock cannot reorder anything.
        assert fired == [1]
        assert sim.now == 10.0

    def test_cancelled_head_does_not_block_fast_forward(self):
        sim = Simulator()
        handle = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run(until=10.0, max_events=1)
        # Only a cancelled entry remained before `until`.
        assert sim.now == 10.0

    def test_stop_ends_run_leaving_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 2.0
        assert sim.pending_events == 1
        sim.run()  # a fresh run picks the remainder back up
        assert fired == [1, 2, 3]

    def test_stop_prevents_fast_forward_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(20.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 1.0  # stopped, not advanced to until

    def test_next_pending_time_prunes_cancelled_heads(self):
        sim = Simulator()
        cancelled = [sim.schedule(t, lambda: None) for t in (1.0, 2.0, 3.0)]
        live = sim.schedule(4.0, lambda: None)
        for handle in cancelled:
            handle.cancel()
        assert sim.pending_events == 4
        assert sim._next_pending_time() == 4.0
        # The cancelled entries are gone from the scheduler, the live
        # one stays.
        assert sim.pending_events == 1
        assert _sole_entry(sim)[2] is live

    def test_next_pending_time_empty_after_pruning_everything(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim._next_pending_time() is None
        assert sim.pending_events == 0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.run()
        handle.cancel()
        assert fired == [1]

    def test_late_cancel_of_retained_handle_touches_no_later_event(self):
        """A handle the caller kept never comes back as a new event, so
        cancelling it after it fired cannot suppress anything."""
        sim = Simulator()
        fired = []
        retained = sim.schedule(1.0, fired.append, 1)
        sim.run()
        later = [sim.schedule(float(t), fired.append, t) for t in range(2, 50)]
        assert all(handle is not retained for handle in later)
        retained.cancel()
        assert not any(handle.cancelled for handle in later)
        sim.run()
        assert fired == list(range(1, 50))

    def test_cancelled_events_not_counted_processed(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_handle_repr_shows_state(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert "pending" in repr(handle)
        handle.cancel()
        assert "cancelled" in repr(handle)


class TestReset:
    def test_reset_clears_everything(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(2.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_processed == 0

    def test_reset_from_inside_callback_drops_pending(self):
        sim = Simulator()
        fired = []

        def boom():
            fired.append("boom")
            sim.reset()

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, "never")
        sim.run()
        assert fired == ["boom"]
        assert sim.pending_events == 0
        assert sim.now == 0.0

    def test_reset_rewinds_tie_break_sequence(self):
        """After reset the first scheduled event gets sequence 0 again,
        so in-process replays break timestamp ties exactly like a fresh
        process (the replay-determinism contract)."""
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        sim.schedule(1.0, lambda: None)
        assert _sole_entry(sim)[1] == 0


class TestPost:
    """Fire-and-forget events: same ordering, no handle."""

    def test_post_returns_nothing(self):
        sim = Simulator()
        assert sim.post(1.0, lambda: None) is None
        assert sim.post_at(2.0, lambda: None) is None

    def test_posted_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.post(3.0, order.append, "c")
        sim.post(1.0, order.append, "a")
        sim.post_at(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_post_and_schedule_interleave_by_scheduling_order(self):
        """post/schedule share one sequence counter, so a tied timestamp
        fires in call order regardless of which API scheduled it."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "s1")
        sim.post(1.0, order.append, "p1")
        sim.schedule(1.0, order.append, "s2")
        sim.post_at(1.0, order.append, "p2")
        sim.run()
        assert order == ["s1", "p1", "s2", "p2"]

    def test_post_counts_in_events_scheduled_and_processed(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.events_scheduled == 2
        sim.run()
        assert sim.events_processed == 2

    def test_post_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().post(-1.0, lambda: None)

    def test_post_non_finite_rejected(self):
        sim = Simulator()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sim.post(bad, lambda: None)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.post_at(bad, lambda: None)

    def test_post_at_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.post_at(1.0, lambda: None)

    def test_posted_events_respect_until_and_stop(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, 1)
        sim.post(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.post(0.5, lambda: sim.stop())
        sim.run()
        assert fired == [1]
        assert sim.now == 5.5
        sim.run()
        assert fired == [1, 2]

    def test_posted_callbacks_can_post_more(self):
        sim = Simulator()
        hits = []

        def recurring(n):
            hits.append(sim.now)
            if n > 1:
                sim.post(1.0, recurring, n - 1)

        sim.post(1.0, recurring, 3)
        sim.run()
        assert hits == [1.0, 2.0, 3.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def tick(n):
                trace.append((sim.now, n))
                if n < 20:
                    sim.schedule(0.1 * (n % 3 + 1), tick, n + 1)

            sim.schedule(0.0, tick, 0)
            sim.run()
            return trace

        assert run_once() == run_once()
