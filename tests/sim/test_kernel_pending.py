"""The kernel's ``pending`` counter when timers are stopped."""

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer


def test_pending_tracks_cancellations_without_scanning():
    # A stopped timer cannot take its armed tick back: the tick stays
    # pending, counted in the heap's length, and fires as a no-op.
    sim = Simulator()
    ticks = []
    timers = [
        PeriodicTimer(sim, float(i + 1), lambda: ticks.append(sim.now),
                      horizon=float(i + 1))
        for i in range(100)
    ]
    for timer in timers:
        timer.start()
    assert sim.pending == 100
    for timer in timers[:40]:
        timer.stop()
    assert sim.pending == 100
    # Repeated stops must not touch the queue.
    for timer in timers[:40]:
        timer.stop()
    assert sim.pending == 100
    assert sim.run() == 100
    assert sim.pending == 0
    assert sim.events_processed == 100
    assert ticks == [float(i + 1) for i in range(40, 100)]
