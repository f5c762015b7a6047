"""Batched same-tick delivery and network fault paths.

The network coalesces all transmissions sharing one arrival time into
a single wave drained by one kernel event, a bucket per destination.
These tests pin the observable contract of that engine: one event per
arrival instant, buckets in first-send order, send-order delivery
within a bucket, per-message liveness checks, and the drop/loss
accounting that must stay identical to a one-event-per-message
implementation.
"""

import random

import pytest

from repro.errors import OverlayError
from repro.metrics.recorder import MetricsRecorder
from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.network import FixedDelay, Network, UniformDelay
from repro.sim import Simulator


def make_message(request_id=1, payload=None):
    return OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=payload,
        request_id=request_id,
        origin=0,
    )


# -- same-tick coalescing --------------------------------------------------


def test_same_tick_messages_share_one_kernel_event():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    seen = []
    net.register(1, lambda m: seen.append(m.payload))
    for tag in ("a", "b", "c"):
        net.transmit(0, 1, make_message(payload=tag))
    # Three messages, one (dst=1, arrival=0.05) bucket, one event.
    assert net.in_flight == 3
    assert sim.pending == 1
    sim.run()
    assert seen == ["a", "b", "c"]  # drained in send order
    assert sim.events_processed == 1
    assert net.in_flight == 0


def test_distinct_destinations_get_distinct_events():
    # (The name predates waves.)  Two destinations at one instant are
    # two buckets of one kernel event, delivered in first-send order,
    # each to its own handler.
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    seen = []
    net.register(1, lambda m: seen.append((1, m.payload)))
    net.register(2, lambda m: seen.append((2, m.payload)))
    net.transmit(0, 2, make_message(payload="a"))
    net.transmit(0, 1, make_message(payload="b"))
    net.transmit(0, 2, make_message(payload="c"))
    assert sim.pending == 1
    sim.run()
    assert seen == [(2, "a"), (2, "c"), (1, "b")]
    assert sim.events_processed == 1


def test_distinct_arrival_times_get_distinct_events():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    net.register(1, lambda m: None)
    net.transmit(0, 1, make_message())
    sim.run_until(0.01)  # advance the clock between sends
    net.transmit(0, 1, make_message())
    assert sim.pending == 2


def test_unregister_mid_batch_drops_remainder():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    seen = []

    def first_receiver_kills_node(message):
        seen.append(message.payload)
        net.unregister(1)

    net.register(1, first_receiver_kills_node)
    net.transmit(0, 1, make_message(payload="first"))
    net.transmit(0, 1, make_message(payload="second"))
    sim.run()
    # The handler is re-fetched per message: once the first delivery
    # unregisters the node, the rest of the bucket is dropped exactly
    # as if each message had its own event.
    assert seen == ["first"]
    assert net.dropped == 1


def test_zero_delay_resend_starts_fresh_bucket():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.0))
    deliveries = []

    def echo_once(message):
        deliveries.append(message.payload)
        if message.payload == "ping":
            net.transmit(1, 1, make_message(payload="pong"))

    net.register(1, echo_once)
    net.transmit(0, 1, make_message(payload="ping"))
    sim.run()
    # The bucket is detached before draining, so a zero-delay re-send
    # to the same destination lands in a new bucket (a later event)
    # instead of being appended to the batch being drained.
    assert deliveries == ["ping", "pong"]
    assert sim.events_processed == 2


def test_in_flight_spans_multiple_buckets():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    net.register(1, lambda m: None)
    net.register(2, lambda m: None)
    net.transmit(0, 1, make_message())
    net.transmit(0, 1, make_message())
    net.transmit(0, 2, make_message())
    assert net.in_flight == 3
    sim.run()
    assert net.in_flight == 0


# -- delay models ----------------------------------------------------------


class DoublingDelay(FixedDelay):
    """A FixedDelay subclass whose sample() is NOT the constant."""

    def sample(self, src: int, dst: int) -> float:
        return self._delay * 2


def test_fixed_delay_subclass_sample_is_respected():
    # Regression: the transmit fast path may only bypass sample() for
    # FixedDelay itself (exact type), never for a subclass overriding
    # it — isinstance() here would silently ignore the override.
    sim = Simulator()
    net = Network(sim, DoublingDelay(0.05))
    arrivals = []
    net.register(1, lambda m: arrivals.append(sim.now))
    net.transmit(0, 1, make_message())
    sim.run()
    assert arrivals == [0.1]


def test_uniform_delay_sampling_is_seeded_and_varied():
    model = UniformDelay(0.01, 0.05, random.Random(7))
    draws = [model.sample(0, 1) for _ in range(50)]
    assert all(0.01 <= d <= 0.05 for d in draws)
    assert len(set(draws)) > 1  # actually random, not constant
    # Same seed, same sequence: simulations stay reproducible.
    again = UniformDelay(0.01, 0.05, random.Random(7))
    assert [again.sample(0, 1) for _ in range(50)] == draws


def test_uniform_delay_messages_arrive_in_sample_order():
    sim = Simulator()
    net = Network(sim, UniformDelay(0.01, 0.5, random.Random(3)))
    arrivals = []
    net.register(1, lambda m: arrivals.append((m.payload, sim.now)))
    for tag in range(5):
        net.transmit(0, 1, make_message(payload=tag))
    sim.run()
    times = [t for _, t in arrivals]
    assert times == sorted(times)
    assert len(arrivals) == 5


# -- loss and drop accounting ----------------------------------------------


def test_loss_rate_requires_rng():
    with pytest.raises(OverlayError):
        Network(Simulator(), loss_rate=0.5)


def test_loss_rate_outside_unit_interval_rejected():
    with pytest.raises(OverlayError):
        Network(Simulator(), loss_rate=1.5, loss_rng=random.Random(0))
    with pytest.raises(OverlayError):
        Network(Simulator(), loss_rate=-0.1, loss_rng=random.Random(0))


def test_total_loss_counts_sends_but_delivers_nothing():
    sim = Simulator()
    recorder = MetricsRecorder()
    net = Network(
        sim, recorder=recorder, loss_rate=1.0, loss_rng=random.Random(0)
    )
    seen = []
    net.register(1, seen.append)
    for _ in range(4):
        net.transmit(0, 1, make_message())
    sim.run()
    assert seen == []
    assert net.lost == 4
    assert net.dropped == 0  # lost in flight, not dropped at a dead node
    # The bytes left the sender: sends are charged regardless.
    assert recorder.messages.total_sends() == 4


def test_partial_loss_is_deterministic_under_seed():
    def run(seed):
        sim = Simulator()
        net = Network(sim, loss_rate=0.5, loss_rng=random.Random(seed))
        delivered = []
        net.register(1, delivered.append)
        for _ in range(64):
            net.transmit(0, 1, make_message())
        sim.run()
        return len(delivered), net.lost

    first = run(42)
    assert first == run(42)  # reproducible
    delivered, lost = first
    assert delivered + lost == 64
    assert 0 < lost < 64  # the coin actually lands both ways


def test_dropped_and_lost_are_disjoint_counters():
    sim = Simulator()
    net = Network(sim, loss_rate=1.0, loss_rng=random.Random(1))
    net.transmit(0, 99, make_message())  # lost before the dead-node check
    sim.run()
    assert (net.lost, net.dropped) == (1, 0)

    sim2 = Simulator()
    net2 = Network(sim2)
    net2.transmit(0, 99, make_message())  # no receiver registered
    sim2.run()
    assert (net2.lost, net2.dropped) == (0, 1)


def test_unregister_then_transmit_drops_silently():
    sim = Simulator()
    net = Network(sim)
    seen = []
    net.register(5, seen.append)
    net.unregister(5)
    net.transmit(0, 5, make_message())
    net.transmit(0, 5, make_message())
    sim.run()
    assert seen == []
    assert net.dropped == 2
