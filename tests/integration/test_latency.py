"""Delivery-latency semantics: hops x 50 ms, plus the buffering delay."""

import random

from repro.core import (
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    Subscription,
)
from repro.core.mappings import make_mapping
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import FixedDelay, Network
from repro.sim import Simulator

KS = KeySpace(13)
SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)


def build(config=None, delay=0.05, seed=5):
    sim = Simulator()
    network = Network(sim, FixedDelay(delay))
    overlay = ChordOverlay(sim, KS, network=network, cache_capacity=0)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), 120))
    system = PubSubSystem(
        sim, overlay, make_mapping("keyspace-split", SPACE, KS), config
    )
    return sim, system


def full_subscription():
    return Subscription.build(
        SPACE, a1=(0, 30000), a2=(0, 1_000_000),
        a3=(0, 1_000_000), a4=(0, 1_000_000),
    )


MATCHING = dict(a1=2000, a2=5, a3=5, a4=5)


def run_one(config, publications=10):
    sim, system = build(config)
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[3], full_subscription())
    sim.run_until(5.0)
    rng = random.Random(9)
    t = sim.now
    for _ in range(publications):
        t += 2.0
        event = dict(MATCHING)
        event["a2"] = rng.randrange(1_000_001)
        sim.schedule_at(t, system.publish, nodes[50], SPACE.make_event(**event))
    sim.run_until(t + 120.0)
    return system.recorder.notification_delay_summary()


def test_unbuffered_delay_is_hops_times_link_delay():
    summary = run_one(None)
    assert summary.count == 10
    # Publication routing + notification routing, each a handful of
    # 50 ms hops: single-digit multiples of the link delay.
    assert 0.05 <= summary.mean <= 0.05 * 30
    # Every delay is an exact multiple of the fixed link delay.
    assert abs(summary.minimum / 0.05 - round(summary.minimum / 0.05)) < 1e-9


def test_buffering_adds_up_to_one_period():
    unbuffered = run_one(None)
    buffered = run_one(
        PubSubConfig(notification="buffered", buffer_period=10.0)
    )
    assert buffered.count == unbuffered.count
    # Expected extra delay ~ period/2 on average, bounded by the period.
    extra = buffered.mean - unbuffered.mean
    assert 0.0 < extra <= 10.0 + 0.05 * 30


def test_longer_period_longer_delay():
    short = run_one(
        PubSubConfig(notification="buffered", buffer_period=4.0)
    )
    long = run_one(
        PubSubConfig(notification="buffered", buffer_period=16.0)
    )
    assert long.mean > short.mean
