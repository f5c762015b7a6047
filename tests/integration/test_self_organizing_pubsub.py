"""The pub/sub stack over the *protocol-maintained* Chord ring.

The strongest form of the paper's self-configuration claim: the overlay
under the pub/sub layer is not an oracle-converged ring but the actual
Chord maintenance protocol — nodes join through routed lookups, pointers
heal by stabilization, and the Section 4.1 state transfer fires when a
node's believed coverage shrinks.  These tests subscribe, publish and
churn over that substrate.
"""

import random

from repro.core import (
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Subscription,
)
from repro.core.mappings import make_mapping
from repro.overlay.chord.protocol import ProtocolChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)
SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)

MATCHING = dict(a1=2000, a2=510_000, a3=5, a4=999_999)


def full_subscription():
    return Subscription.build(
        SPACE,
        a1=(1000, 30000),
        a2=(500_000, 530_000),
        a3=(0, 1_000_000),
        a4=(0, 1_000_000),
    )


def build(n=40, seed=15, config=None):
    sim = Simulator()
    overlay = ProtocolChordOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    system = PubSubSystem(
        sim, overlay, make_mapping("selective-attribute", SPACE, KS), config
    )
    return sim, overlay, system


def settle(sim, overlay, seconds=None):
    """Run long enough for fix_fingers to cycle every entry."""
    horizon = seconds or 3 * KS.bits * overlay.fix_fingers_period
    sim.run_until(sim.now + horizon)


def test_end_to_end_over_protocol_ring():
    sim, overlay, system = build()
    settle(sim, overlay)
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    settle(sim, overlay, 20.0)
    system.publish(nodes[20], SPACE.make_event(**MATCHING))
    system.publish(nodes[21], SPACE.make_event(a1=900_000, a2=0, a3=0, a4=0))
    settle(sim, overlay, 20.0)
    assert len(received) == 1
    assert received[0].subscription_id == sigma.subscription_id


def test_all_routing_modes_over_protocol_ring():
    for routing in RoutingMode:
        sim, overlay, system = build(config=PubSubConfig(routing=routing))
        settle(sim, overlay)
        received = []
        system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
        nodes = overlay.node_ids()
        system.subscribe(nodes[5], full_subscription())
        settle(sim, overlay, 60.0)
        system.publish(nodes[25], SPACE.make_event(**MATCHING))
        settle(sim, overlay, 30.0)
        assert len(received) == 1, routing


def test_join_state_transfer_moves_subscriptions():
    """A node joining *after* a subscription was installed pulls the
    inherited rendezvous state through the stabilization-driven hook."""
    sim, overlay, system = build(n=25, seed=16)
    settle(sim, overlay)
    nodes = overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    settle(sim, overlay, 20.0)
    holders = [
        node_id
        for node_id in overlay.node_ids()
        if sigma.subscription_id in system.node(node_id).store
    ]
    assert holders
    # Join a node right at one of the stored rendezvous keys: the hook
    # must hand it the subscription when stabilization cedes coverage.
    holder = holders[0]
    entry = system.node(holder).store.get(sigma.subscription_id)
    target_key = min(system.node(holder).held_keys(entry))
    if overlay.is_alive(target_key):
        return  # degenerate layout for this seed; other tests cover it
    system.add_node(target_key)
    settle(sim, overlay, 120.0)
    assert sigma.subscription_id in system.node(target_key).store
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    system.publish(overlay.node_ids()[10], SPACE.make_event(**MATCHING))
    settle(sim, overlay, 30.0)
    assert received


def test_delivery_survives_protocol_churn_with_replication():
    sim, overlay, system = build(
        n=30,
        seed=17,
        config=PubSubConfig(
            routing=RoutingMode.MCAST,
            replication_factor=2,
            failure_detection_delay=1.0,
        ),
    )
    settle(sim, overlay)
    rng = random.Random(18)
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    subscriber = overlay.node_ids()[0]
    sigma = full_subscription()
    system.subscribe(subscriber, sigma)
    settle(sim, overlay, 30.0)
    # Churn: a protocol join and a crash, letting stabilization heal.
    for round_number in range(4):
        candidate = rng.randrange(KS.size)
        if not overlay.is_alive(candidate):
            system.add_node(candidate)
        settle(sim, overlay, 40.0)
        victims = [n for n in overlay.node_ids() if n != subscriber]
        system.crash_node(rng.choice(victims))
        settle(sim, overlay, 40.0)
        system.publish(
            rng.choice(overlay.node_ids()), SPACE.make_event(**MATCHING)
        )
        settle(sim, overlay, 30.0)
    # Most rounds deliver; replication covers crashed rendezvous.
    assert len(received) >= 3
