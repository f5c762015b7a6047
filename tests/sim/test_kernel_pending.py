"""The O(1) ``Simulator.pending`` counter and lazy-cancel bookkeeping."""

from __future__ import annotations

import random

from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.network import Network
from repro.sim.events import ScheduledEvent
from repro.sim.kernel import Simulator


def test_pending_tracks_cancellations_without_scanning():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending == 100
    for handle in handles[:40]:
        handle.cancel()
    assert sim.pending == 60
    # Idempotent cancels must not double-count.
    for handle in handles[:40]:
        handle.cancel()
    assert sim.pending == 60
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 60


def test_cancel_after_fire_does_not_corrupt_pending():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.run(max_events=1) == 1
    first.cancel()  # already fired: must be a no-op for the counter
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.pending == 0


def test_cancel_seen_by_step_and_run_until():
    sim = Simulator()
    kept = []
    doomed = sim.schedule(1.0, kept.append, "doomed")
    sim.schedule(1.5, kept.append, "kept")
    later = sim.schedule(3.0, kept.append, "later")
    doomed.cancel()
    assert sim.pending == 2
    assert sim.step() is True
    assert kept == ["kept"]
    later.cancel()
    assert sim.run_until(5.0) == 0
    assert sim.pending == 0
    assert sim.now == 5.0


def test_detached_handle_cancel_is_harmless():
    # Handles built outside a kernel (tests, external queues) have no
    # simulator to notify; cancel() must still work.
    event = ScheduledEvent(time=0.0, seq=0, callback=lambda: None)
    event.cancel()
    event.cancel()
    assert event.cancelled


def test_pending_matches_brute_force_count_under_random_churn():
    rng = random.Random(42)
    sim = Simulator()
    live: list = []
    for round_number in range(50):
        for _ in range(rng.randint(0, 5)):
            live.append(sim.schedule(rng.uniform(0.0, 10.0), lambda: None))
        if live and rng.random() < 0.5:
            victim = live.pop(rng.randrange(len(live)))
            victim.cancel()
        expected = sum(
            1 for (_, _, ev) in sim._heap if not ev.cancelled
        )
        assert sim.pending == expected
    sim.run()
    assert sim.pending == 0


def test_step_fires_call_at_events_and_network_deliveries():
    # Regression: step() read ``event.time``, which only a cancellable
    # ScheduledEvent has — it raised on (and lost) every call_at event,
    # which is what a network delivery is.
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, "plain")
    assert sim.step() is True
    assert (sim.now, fired) == (1.0, ["plain"])
    net = Network(sim)
    net.register(7, fired.append)
    message = OverlayMessage(MessageKind.CONTROL, None, request_id=1, origin=0)
    net.transmit(0, 7, message)
    assert sim.step() is True
    assert (sim.now, fired) == (1.05, ["plain", message])
    assert sim.step() is False
