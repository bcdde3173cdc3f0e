"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventloop import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "latest")
    sim.run()
    assert fired == ["early", "late", "latest"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in-window")
    sim.schedule(10.0, fired.append, "after-window")
    sim.run(until=5.0)
    assert fired == ["in-window"]
    assert sim.now == 5.0  # clock advances to the requested horizon
    sim.run()
    assert fired == ["in-window", "after-window"]


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(3.0)
    assert sim.now == 3.0
    sim.run_for(2.0)
    assert sim.now == 5.0


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_runaway_guard_trips():
    sim = Simulator()

    def respawn():
        sim.schedule(0.001, respawn)

    sim.schedule(0.001, respawn)
    with pytest.raises(SimulationError):
        sim.run(until=1e9, max_events=1000)


def test_pending_and_processed_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 2


def test_pending_counts_cancellations_immediately():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    drop.cancel()
    assert sim.pending == 1  # O(1) live count, no heap scan
    drop.cancel()  # double-cancel must not decrement again
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 1
    assert keep.popped


def test_cancel_then_pop_does_not_double_count():
    """A cancelled event still sits in the heap until run() pops it;
    the pop must not decrement the live count a second time."""
    sim = Simulator()
    cancelled = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()  # pops the cancelled entry, then the live one
    assert sim.pending == 0
    assert sim.events_processed == 1


def test_cancel_after_pop_is_a_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "ran")
    sim.schedule(2.0, lambda: event.cancel())  # too late: already popped
    sim.run()
    assert fired == ["ran"]
    assert sim.pending == 0
    assert not event.cancelled


def test_cancel_inside_run_keeps_pending_consistent():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, fired.append, "later")

    def first():
        fired.append("first")
        later.cancel()
        assert sim.pending == 0

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first"]
    assert sim.pending == 0


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


class TestHeapOrder:
    """The heap holds ``(time, sequence, event)``: order is time, then
    schedule order, whichever of ``schedule``/``schedule_at`` was used."""

    def test_fifo_at_equal_times_across_schedule_and_schedule_at(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_at(1.0, fired.append, "b")
        sim.schedule(0.5, fired.append, "first")
        sim.schedule(1.0, fired.append, "c")
        sim.schedule_at(1.0, fired.append, "d")
        sim.run()
        assert fired == ["first", "a", "b", "c", "d"]

    def test_schedule_at_now_runs_after_earlier_same_time_events(self):
        sim = Simulator()
        fired = []

        def at_one():
            fired.append("at-one")
            sim.schedule_at(sim.now, fired.append, "same-time")
            sim.schedule(0.0, fired.append, "zero-delay")

        sim.schedule_at(1.0, at_one)
        sim.schedule_at(1.0, fired.append, "queued-before")
        sim.run()
        assert fired == ["at-one", "queued-before", "same-time", "zero-delay"]
        assert sim.now == 1.0

    def test_schedule_at_returns_a_cancellable_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(2.0, fired.append, "x")
        assert (event.time, event.popped, event.cancelled) == (2.0, False, False)
        event.cancel()
        assert sim.pending == 0
        sim.run()
        assert fired == []
        assert event.popped

    def test_cancel_after_pop_leaves_pending_alone(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert first.popped and sim.pending == 1
        first.cancel()
        assert not first.cancelled
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 2

    def test_cancelled_events_do_not_count_against_max_events(self):
        sim = Simulator()
        for index in range(10):
            event = sim.schedule(1.0, lambda: None)
            if index % 2:
                event.cancel()
        sim.run(max_events=5)  # five live events: inside the guard
        assert sim.events_processed == 5
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=4)

    def test_events_are_not_ordered_by_themselves(self):
        sim = Simulator()
        early = sim.schedule(1.0, lambda: None)
        late = sim.schedule(2.0, lambda: None)
        with pytest.raises(TypeError):
            early < late  # noqa: B015 - ordering lives in the heap tuples
        assert early != late
        assert early == early

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["delay", "at"]),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0]),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_pop_order_is_time_then_schedule_order(self, ops):
        sim = Simulator()
        fired = []
        expected = []
        for index, (how, when, cancel) in enumerate(ops):
            if how == "delay":
                event = sim.schedule(when, fired.append, index)
            else:
                event = sim.schedule_at(when, fired.append, index)
            if cancel:
                event.cancel()
            else:
                expected.append((when, index))
        assert sim.pending == len(expected)
        sim.run()
        assert fired == [index for _, index in sorted(expected)]
        assert sim.pending == 0
