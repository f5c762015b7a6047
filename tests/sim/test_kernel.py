"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.network import Network
from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "last")
    sim.run()
    assert fired == ["early", "late", "last"]
    assert sim.now == 3.0


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, fired.append, t)
    count = sim.run_until(2.0)
    assert count == 2
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    # The rest is still pending and can be run later.
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_run_max_events_bounds_work():
    sim = Simulator()
    fired = []
    for t in range(10):
        sim.schedule(float(t + 1), fired.append, t)
    assert sim.run(max_events=4) == 4
    assert len(fired) == 4


def test_pending_and_processed_counters():
    sim = Simulator()
    for i in range(100):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.pending == 100
    assert sim.run(max_events=40) == 40
    assert (sim.pending, sim.events_processed) == (60, 40)
    sim.run_until(70.0)
    assert (sim.pending, sim.events_processed) == (30, 70)
    sim.run()
    assert (sim.pending, sim.events_processed) == (0, 100)


def test_run_one_event_fires_schedule_at_events_and_network_deliveries():
    # A network delivery is a kernel event like any other: running one
    # event at a time fires it (a one-event step once raised on it).
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "plain")
    assert sim.run(max_events=1) == 1
    assert (sim.now, fired) == (1.0, ["plain"])
    net = Network(sim)
    net.register(7, fired.append)
    message = OverlayMessage(MessageKind.CONTROL, None, request_id=1, origin=0)
    net.transmit(0, 7, message)
    assert sim.run(max_events=1) == 1
    assert (sim.now, fired) == (1.05, ["plain", message])
    assert sim.run(max_events=1) == 0


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), min_size=1, max_size=50))
def test_property_events_fire_in_time_then_scheduling_order(times):
    # Few distinct timestamps, so ties are common.
    sim = Simulator()
    fired = []
    for order, time in enumerate(times):
        sim.schedule_at(time, fired.append, (time, order))
    assert sim.run() == len(times)
    assert fired == sorted(fired)
    assert sim.pending == 0


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_zero_delay_fires_at_current_time():
    sim = Simulator()
    sim.run_until(5.0)
    fired = []
    sim.schedule(0.0, fired.append, sim.now)
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0
