"""Unit tests for the periodic timer, bounded and unbounded."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer


def test_ticks_at_period():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 2.0, lambda: ticks.append(sim.now))
    timer.start()
    sim.run_until(7.0)
    assert ticks == [2.0, 4.0, 6.0]


def test_stop_halts_ticking():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    timer.start()
    sim.run_until(2.5)
    timer.stop()
    sim.run_until(10.0)
    assert ticks == [1.0, 2.0]


def test_stopped_chain_leaves_one_no_op_tick():
    # The kernel cannot take the armed tick back: it stays pending and
    # fires, without calling back, at its time.
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    timer.start()
    sim.run_until(1.5)
    timer.stop()
    assert sim.pending == 1
    assert sim.run() == 1
    assert (ticks, sim.now, sim.pending) == ([1.0], 2.0, 0)


def test_stop_from_within_callback():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 3:
            timer.stop()

    timer = PeriodicTimer(sim, 1.0, tick)
    timer.start()
    sim.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_double_start_is_noop():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    timer.start()
    timer.start()
    sim.run_until(2.5)
    assert ticks == [1.0, 2.0]


def test_nonpositive_period_rejected():
    with pytest.raises(ValueError):
        PeriodicTimer(Simulator(), 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicTimer(Simulator(), -1.0, lambda: None)


def test_restart_after_stop():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    timer.start()
    sim.run_until(1.5)
    timer.stop()
    timer.start()
    sim.run_until(3.0)
    assert ticks == [1.0, 2.5]


def test_fires_each_period_up_to_horizon():
    sim = Simulator()
    fired = []
    PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now), horizon=9.0).start()
    sim.run()
    assert fired == [2.0, 4.0, 6.0, 8.0]


def test_horizon_is_inclusive():
    sim = Simulator()
    fired = []
    PeriodicTimer(sim, 3.0, lambda: fired.append(sim.now), horizon=6.0).start()
    sim.run()
    assert fired == [3.0, 6.0]


def test_horizon_before_first_tick_schedules_nothing():
    sim = Simulator()
    PeriodicTimer(sim, 3.0, lambda: None, horizon=2.0).start()
    assert sim.pending == 0


def test_unbounded_chain_stops_with_max_events():
    sim = Simulator()
    fired = []
    PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now)).start()
    sim.run(max_events=5)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
