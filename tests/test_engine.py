"""Unit tests for the discrete-event engine."""

import random

import pytest

from proputil import seeded_property
from repro.sim.engine import SimTimeError, Simulator, Timer, total_events


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(3.0, order.append, "c")
    sim.call_later(1.0, order.append, "a")
    sim.call_later(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, fired.append, "late")
    executed = sim.run(until=2.0)
    assert executed == 0
    assert sim.now == 2.0
    assert fired == []
    sim.run(until=10.0)
    assert fired == ["late"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimTimeError):
        sim.call_later(-0.5, lambda: None)
    with pytest.raises(SimTimeError):
        Timer(sim, lambda: None).start(-0.5)
    assert sim.pending() == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append("x"))
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.call_later(1.0, second)

    def second():
        seen.append(sim.now)

    sim.call_later(1.0, first)
    sim.run()
    assert seen == [1.0, 2.0]


def test_clock_never_moves_backwards_across_runs():
    sim = Simulator()
    times = []
    for t in (1.0, 2.0, 3.0):
        sim.call_later(t, lambda: times.append(sim.now))
    sim.run(until=2.5)
    sim.run(until=1.0)  # an `until` in the past runs nothing
    assert sim.now == 2.5
    sim.run(until=10.0)
    assert times == sorted(times)
    assert times == [1.0, 2.0, 3.0]


def test_run_until_skips_cancelled_events_when_fast_forwarding():
    # A cancelled event below `until` must not pin the clock.
    sim = Simulator()
    early, late = Timer(sim, lambda: None), Timer(sim, lambda: None)
    early.start(1.0)
    late.start(7.0)
    early.cancel()
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert late.active


def test_timer_restart_and_cancel():
    sim = Simulator()
    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    timer.start(1.0)
    assert timer.active
    timer.restart(2.0)
    sim.run()
    assert fires == [2.0]
    assert not timer.active

    timer.start(1.0)
    timer.cancel()
    timer.cancel()  # idempotent
    sim.run()
    assert fires == [2.0]


def test_timer_double_start_raises():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    with pytest.raises(RuntimeError):
        timer.start(2.0)


# ---------------------------------------------------------------------------
# Uncancellable scheduling: call_later / schedule_many.
# ---------------------------------------------------------------------------
def test_call_later_fires_in_time_then_fifo_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, order.append, "b")
    sim.call_later(1.0, order.append, "a")
    sim.call_later(2.0, order.append, "c")  # same time: FIFO by seq
    sim.run()
    assert order == ["a", "b", "c"]
    with pytest.raises(SimTimeError):
        sim.call_later(-1.0, order.append, "past")


def test_schedule_many_matches_loop_of_schedules():
    """Batch scheduling must consume sequence numbers in iteration order,
    exactly like an equivalent loop — tie-breaking is observable."""
    sim_a, sim_b = Simulator(), Simulator()
    order_a, order_b = [], []
    triples = [(1.0, order_a.append, (index,)) for index in range(5)]
    sim_a.schedule_many(iter(triples))
    for __, __unused, (index,) in triples:
        sim_b.call_later(1.0, order_b.append, index)
    assert sim_a.pending() == sim_b.pending() == 5
    sim_a.run()
    sim_b.run()
    assert order_a == order_b == [0, 1, 2, 3, 4]


def test_schedule_many_rejects_past_times():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimTimeError):
        sim.schedule_many([(0.5, lambda: None, ()), (-1.0, lambda: None, ())])
    # The valid first triple was still scheduled (documented best-effort).
    assert sim.pending() == 1


def test_events_executed_accumulates():
    sim = Simulator()
    for index in range(5):
        sim.call_later(float(index + 1), lambda: None)
    before = total_events()
    assert sim.run(until=2.0) == 2
    assert sim.run() == 3
    assert total_events() - before == 5


# ---------------------------------------------------------------------------
# Regression: cancel is O(1) lazy deletion, pending() is an exact counter.
# ---------------------------------------------------------------------------
def test_cancel_is_lazy_and_pending_is_exact():
    sim = Simulator()
    timers = [Timer(sim, lambda: None) for __ in range(100)]
    for index, timer in enumerate(timers):
        timer.start(float(index + 1))
    assert sim.pending() == 100
    heap_size = len(sim._heap)
    for timer in timers[::2]:
        timer.cancel()
    # Lazy deletion: cancellation must not touch the heap structure.
    assert len(sim._heap) == heap_size
    assert sim.pending() == 50
    for timer in timers[::2]:
        timer.cancel()  # double cancel: exact no-op
    assert sim.pending() == 50
    executed = sim.run()
    assert executed == 50
    assert sim.pending() == 0
    timers[1].cancel()  # cancel after fire: exact no-op
    assert sim.pending() == 0


def test_pending_consistent_through_lazy_deletion_sweep():
    """run(until=...) sweeps cancelled heads while fast-forwarding; the
    live counter must not drift."""
    sim = Simulator()
    cancelled = [Timer(sim, lambda: None) for __ in range(10)]
    keeper = Timer(sim, lambda: None)
    for timer in cancelled:
        timer.start(1.0)
    keeper.start(7.0)
    for timer in cancelled:
        timer.cancel()
    assert sim.pending() == 1
    sim.run(until=5.0)  # sweeps the cancelled entries below `until`
    assert sim.now == 5.0
    assert sim.pending() == 1
    assert keeper.active
    sim.run(until=10.0)
    assert sim.pending() == 0


def test_pending_is_consistent_mid_run():
    sim = Simulator()
    seen = []

    def probe():
        seen.append(sim.pending())

    for index in range(3):
        sim.call_later(float(index + 1), probe)
    sim.run()
    assert seen == [2, 1, 0]


def test_timer_restart_does_not_leak_pending():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(5.0)
    for __ in range(50):
        timer.restart(5.0)
    assert sim.pending() == 1
    timer.cancel()
    assert sim.pending() == 0


# ---------------------------------------------------------------------------
# Property: (time, seq) FIFO ordering under cancellation and `until`.
# ---------------------------------------------------------------------------
@seeded_property()
def test_property_event_order_with_cancellations(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    live = []  # (time, id) in scheduling order
    timers = {}
    for event_id in range(rng.randrange(0, 40)):
        time = rng.randrange(0, 8) * 0.25  # coarse grid: collisions likely
        if rng.random() < 0.5:
            sim.call_later(time, fired.append, event_id)
        else:
            timers[event_id] = Timer(
                sim, lambda event_id=event_id: fired.append(event_id))
            timers[event_id].start(time)
        live.append((time, event_id))
    for time, event_id in list(live):
        if event_id in timers and rng.random() < 0.5:
            timers[event_id].cancel()
            if rng.random() < 0.5:
                timers[event_id].cancel()  # idempotent
            live.remove((time, event_id))
    assert sim.pending() == len(live)

    until = rng.choice([None, 0.6, 1.1, 1.75, 10.0])
    executed = sim.run(until=until)

    # Stable sort by time over scheduling order == (time, seq) order.
    times = dict(map(reversed, live))
    expected = [event_id for __, event_id in
                sorted(live, key=lambda pair: pair[0])
                if until is None or times[event_id] <= until]
    assert fired == expected
    assert executed == len(expected)
    assert sim.pending() == len(live) - len(expected)
    if until is not None:
        assert sim.now == until  # everything due ran; the clock lands on it
    elif fired:
        assert sim.now == times[fired[-1]]


@seeded_property()
def test_property_mid_run_scheduling_preserves_order(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired_times = []
    budget = [rng.randrange(1, 30)]

    def tick():
        fired_times.append(sim.now)
        if budget[0] > 0:
            budget[0] -= 1
            for __ in range(rng.randrange(0, 3)):
                sim.call_later(rng.randrange(0, 4) * 0.125, tick)

    sim.call_later(0.0, tick)
    sim.run()
    assert fired_times == sorted(fired_times)
    assert sim.pending() == 0
