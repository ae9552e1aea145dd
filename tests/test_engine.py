"""Tests for the discrete-event loop."""

import pytest

from repro.sim.engine import EventLoop, SimulationError
from repro.sim.timebase import format_time


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(30, lambda: fired.append("c"))
    loop.schedule(10, lambda: fired.append("a"))
    loop.schedule(20, lambda: fired.append("b"))
    loop.run_until(100)
    assert fired == ["a", "b", "c"]
    assert loop.now == 100


def test_same_time_events_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for tag in "abc":
        loop.schedule(5, lambda tag=tag: fired.append(tag))
    loop.run_until(5)
    assert fired == ["a", "b", "c"]


def test_zero_delay_event_runs():
    loop = EventLoop()
    fired = []
    loop.schedule(0, lambda: fired.append(1))
    loop.run_until(0)
    assert fired == [1]


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    loop = EventLoop()
    loop.run_until(50)
    with pytest.raises(SimulationError):
        loop.schedule_at(40, lambda: None)


def test_run_until_backwards_rejected():
    loop = EventLoop()
    loop.run_until(10)
    with pytest.raises(SimulationError):
        loop.run_until(5)


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(10, lambda: fired.append(1))
    handle.cancel()
    assert handle.cancelled
    loop.run_until(20)
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_events_scheduled_during_run_fire():
    loop = EventLoop()
    fired = []

    def first():
        fired.append("first")
        loop.schedule(5, lambda: fired.append("second"))

    loop.schedule(10, first)
    loop.run_until(20)
    assert fired == ["first", "second"]


def test_event_beyond_deadline_stays_queued():
    loop = EventLoop()
    fired = []
    loop.schedule(100, lambda: fired.append(1))
    loop.run_until(50)
    assert fired == []
    assert loop.pending() == 1
    loop.run_until(100)
    assert fired == [1]


def test_events_fired_counter():
    loop = EventLoop()
    for _ in range(3):
        loop.schedule(1, lambda: None)
    loop.run_until(1)
    assert loop.events_fired == 3


def test_run_while_stops_on_condition():
    loop = EventLoop()
    state = {"stop": False}
    loop.schedule(10, lambda: state.update(stop=True))
    loop.schedule(20, lambda: None)
    satisfied = loop.run_while(lambda: not state["stop"], 100)
    assert satisfied
    assert loop.now == 10  # stopped at the event that flipped the flag


def test_run_while_deadline():
    loop = EventLoop()
    loop.schedule(10, lambda: None)
    satisfied = loop.run_while(lambda: True, 50)
    assert not satisfied
    assert loop.now == 50


def test_run_while_already_satisfied():
    loop = EventLoop()
    assert loop.run_while(lambda: False, 100)
    assert loop.now == 0


def test_run_while_bad_interval():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.run_while(lambda: True, 10, check_interval=0)


def test_handle_when():
    loop = EventLoop()
    handle = loop.schedule(25, lambda: None)
    assert handle.when == 25


def test_repr():
    loop = EventLoop()
    loop.schedule(5, lambda: None)
    assert "pending=1" in repr(loop)


def test_format_time():
    assert format_time(1) == "1us"
    assert format_time(1500) == "1.500ms"
    assert format_time(2_500_000) == "2.500s"
    assert format_time(-1500) == "-1.500ms"


# --------------------------------------------------- compaction accounting


def test_timer_churn_workload_forces_one_compaction():
    """The workload shape ``EventLoop._note_cancel``'s threshold note
    points at: a sleeper population whose wake timers are mostly
    cancelled before firing (early wakeups racing the timeout).

    The committed benchmarks legitimately report ``heap_compactions ==
    0`` -- their steady-state heaps stay small (one phase-end per busy
    CPU plus sleeper timers) and cancelled entries are popped within
    microseconds, so lazy cancels never outnumber live entries at the
    64-entry floor.  This test builds the heap past the floor and
    cancels a two-thirds majority *before* any pop, which must trigger
    the compaction pass -- and compaction must be invisible to the
    schedule.
    """
    loop = EventLoop()
    fired = []
    timers = [
        loop.schedule(1_000 + i, lambda i=i: fired.append(i), label="timer")
        for i in range(96)
    ]
    assert loop.heap_size() >= 64  # past the _COMPACT_MIN_HEAP floor
    for i, handle in enumerate(timers):
        if i % 3 != 0:  # two of every three sleepers wake early
            handle.cancel()
    assert loop.compactions >= 1
    assert loop.pending() == 32
    # The compacted heap dropped the garbage (some sub-threshold
    # remainder is legal -- compaction fires at majority, not at one).
    assert loop.heap_size() - loop.pending() <= loop.pending()
    loop.run_until(2_000)
    assert fired == [i for i in range(96) if i % 3 == 0]
    assert loop.events_fired == 32


# ------------------------------------------- same-timestamp cancel/follow-on


def test_cancel_after_victim_fired_is_noop():
    # The canceller sits *after* its victim in seq order: the victim has
    # already fired by the time the cancel lands.
    loop = EventLoop()
    fired = []
    victim = loop.schedule(10, lambda: fired.append("victim"))
    loop.schedule(10, lambda: victim.cancel())
    loop.run_until(30)
    assert fired == ["victim"]
    assert loop.events_fired == 2
    assert loop.pending() == 0


def test_same_timestamp_cancel_before_victim_fires():
    # The canceller sits *before* its victim at the same timestamp: the
    # victim must not fire, and the live accounting must not drift.
    loop = EventLoop()
    fired = []
    holder = {}
    loop.schedule(10, lambda: holder["victim"].cancel())
    holder["victim"] = loop.schedule(10, lambda: fired.append("victim"))
    loop.schedule(10, lambda: fired.append("tail"))
    loop.run_until(30)
    assert fired == ["tail"]
    assert loop.events_fired == 2
    assert loop.pending() == 0


def test_followon_work_at_current_timestamp_runs_after_queued_events():
    # Zero-delay work scheduled by a callback gets a higher seq than
    # everything already queued for the timestamp, so it runs last.
    loop = EventLoop()
    fired = []
    loop.schedule(
        10, lambda: (fired.append("a"), loop.schedule(
            0, lambda: fired.append("a-child")
        ))
    )
    loop.schedule(10, lambda: fired.append("b"))
    loop.run_until(30)
    assert fired == ["a", "b", "a-child"]
