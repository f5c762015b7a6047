"""Overlay portability (the paper's footnote 1): the identical pub/sub
stack runs over Chord, the Pastry-style prefix router, and the
CAN-style zone overlay."""

import random

import pytest

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.can import CanOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)


def run_over(overlay_cls, mapping, routing, seed=21):
    sim = Simulator()
    overlay = overlay_cls(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), 80))
    spec = WorkloadSpec(matching_probability=1.0)
    space = spec.make_space()
    system = PubSubSystem(
        sim, overlay, make_mapping(mapping, space, KS), PubSubConfig(routing=routing)
    )
    notifications = []
    system.set_global_notify_handler(lambda nid, ns: notifications.extend(ns))
    trace = Trace.generate(spec, random.Random(seed + 1), overlay.node_ids(), 20, 30)
    trace.replay(system)
    # Subscription/event ids are process-global counters, so express
    # matches as injection-index pairs for cross-run comparability.
    event_index = {e.event_id: i for i, e in enumerate(trace.events)}
    sub_index = {
        s.subscription_id: i for i, s in enumerate(trace.subscriptions)
    }
    got = {
        (event_index[n.event.event_id], sub_index[n.subscription_id])
        for n in notifications
    }
    # A publication within a second of its subscription races the
    # subscription's propagation (50 ms a hop) and is owed nothing.
    ops = trace.ops
    expected = {
        (event_index[pub.event.event_id], sub_index[sub.subscription.subscription_id])
        for pub in ops if pub.kind == "pub"
        for sub in ops if sub.kind == "sub"
        if sub.time + 1.0 <= pub.time and sub.subscription.matches(pub.event)
    }
    return got, expected


@pytest.mark.parametrize("overlay_cls", [ChordOverlay, PastryOverlay, CanOverlay])
@pytest.mark.parametrize(
    "mapping", ["attribute-split", "keyspace-split", "selective-attribute"]
)
def test_full_stack_over_every_overlay(overlay_cls, mapping):
    got, expected = run_over(overlay_cls, mapping, RoutingMode.MCAST)
    assert got >= expected


@pytest.mark.parametrize("overlay_cls", [ChordOverlay, PastryOverlay, CanOverlay])
def test_unicast_and_sequential_modes_portable(overlay_cls):
    for routing in (RoutingMode.UNICAST, RoutingMode.SEQUENTIAL):
        got, expected = run_over(overlay_cls, "selective-attribute", routing)
        assert got >= expected


@pytest.mark.parametrize("overlay_cls", [ChordOverlay, PastryOverlay, CanOverlay])
def test_churn_state_transfer_portable(overlay_cls):
    """The Section 4.1 churn contract holds on every overlay: state
    follows the KN-mapping through joins and graceful leaves."""
    sim = Simulator()
    overlay = overlay_cls(sim, KS)
    overlay.build_ring(random.Random(41).sample(range(KS.size), 60))
    spec = WorkloadSpec(matching_probability=1.0)
    space = spec.make_space()
    system = PubSubSystem(
        sim, overlay, make_mapping("selective-attribute", space, KS)
    )
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    from repro.workload.generator import SubscriptionGenerator

    rng = random.Random(42)
    generator = SubscriptionGenerator(spec, rng)
    sigma = generator.generate()
    subscriber = overlay.node_ids()[0]
    system.subscribe(subscriber, sigma)
    sim.run()
    # Churn away half the ring (never the subscriber).
    for victim in [n for n in overlay.node_ids() if n != subscriber][:30]:
        system.remove_node(victim)
    candidate = next(
        k for k in range(KS.size) if not overlay.is_alive(k)
    )
    system.add_node(candidate)
    sim.run()
    # An event inside sigma must still be delivered.
    values = {}
    for index, attribute in enumerate(space.attributes):
        constraint = sigma.constraint_on(index)
        values[attribute.name] = constraint.low if constraint else 0
    system.publish(
        random.Random(43).choice(overlay.node_ids()), space.make_event(**values)
    )
    sim.run()
    assert received


def test_same_workload_same_matches_across_overlays():
    """The delivered match set is overlay-independent (only the message
    paths differ)."""
    chord_got, expected = run_over(ChordOverlay, "keyspace-split", RoutingMode.MCAST)
    pastry_got, expected2 = run_over(PastryOverlay, "keyspace-split", RoutingMode.MCAST)
    assert expected == expected2
    assert chord_got == pastry_got
