"""Replication and churn: Section 4.1's fault-tolerance machinery."""

import random

from repro.core import (
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Subscription,
)
from repro.core.mappings import make_mapping
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)
KS = KeySpace(13)

MATCHING = dict(a1=2000, a2=510_000, a3=5, a4=999_999)


def full_subscription():
    return Subscription.build(
        SPACE,
        a1=(1000, 30000),
        a2=(500_000, 530_000),
        a3=(0, 1_000_000),
        a4=(0, 1_000_000),
    )


def build_system(config=None, n=120, seed=5):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=32)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    system = PubSubSystem(
        sim, overlay, make_mapping("selective-attribute", SPACE, KS), config
    )
    return sim, system


def rendezvous_nodes(system, sigma):
    """Nodes currently storing the subscription."""
    return [
        node_id
        for node_id in system.overlay.node_ids()
        if sigma.subscription_id in system.node(node_id).store
    ]


def test_replicas_stored_on_successors():
    sim, system = build_system(PubSubConfig(replication_factor=2))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    assert holders
    for holder in holders:
        succ1 = system.overlay.successor_of(holder)
        assert sigma.subscription_id in system.node(succ1).replicas.get(holder, {})
        # The chain forwards under the *original* owner id.
        succ2 = system.overlay.successor_of(succ1)
        assert sigma.subscription_id in system.node(succ2).replicas.get(holder, {})


def test_crash_recovery_restores_delivery():
    sim, system = build_system(
        PubSubConfig(replication_factor=2, failure_detection_delay=0.2)
    )
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    victim = next(h for h in holders if h != nodes[3])
    system.crash_node(victim)
    sim.run_until(sim.now + 5.0)
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert len(received) >= 1


def test_crash_without_replication_loses_state():
    sim, system = build_system(PubSubConfig(replication_factor=0))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    for victim in list(holders):
        if victim != nodes[3]:
            system.crash_node(victim)
    sim.run_until(sim.now + 5.0)
    remaining = rendezvous_nodes(system, sigma)
    assert len(remaining) < len(holders)


def test_graceful_leave_transfers_state():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    # Every rendezvous node except the subscriber leaves gracefully.
    for victim in holders:
        if victim != nodes[3] and len(system.overlay) > 2:
            system.remove_node(victim)
    sim.run()
    # State moved to the new owners of the rendezvous keys.
    keys = system.mapping.subscription_keys(sigma)
    new_holders = {system.overlay.owner_of(k) for k in keys}
    stored_at = set(rendezvous_nodes(system, sigma))
    assert stored_at & new_holders
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert len(received) >= 1


def test_join_pulls_state_from_successor():
    sim, system = build_system(n=60, seed=9)
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    holder = holders[0]
    entry = system.node(holder).store.get(sigma.subscription_id)
    # Join a node that takes over one of the holder's stored keys.
    stolen_key = min(system.node(holder).held_keys(entry))
    new_id = stolen_key  # node id == key: it will cover that key exactly
    if system.overlay.is_alive(new_id):
        return  # unlucky layout; covered by other seeds
    system.add_node(new_id)
    sim.run()
    assert sigma.subscription_id in system.node(new_id).store
    new_entry = system.node(new_id).store.get(sigma.subscription_id)
    assert stolen_key in system.node(new_id).held_keys(new_entry)
    # The old holder no longer claims the stolen key.
    old_entry = system.node(holder).store.get(sigma.subscription_id)
    if old_entry is not None:
        assert stolen_key not in system.node(holder).held_keys(old_entry)


def test_heir_hands_on_inherited_keys_after_a_crash():
    # Without replication, the heir of a crashed holder matches σ on the
    # keys it inherited.  A node that later joins inside the crashed
    # node's old arc must still receive σ from the heir's state transfer.
    sim, system = build_system(PubSubConfig(replication_factor=0))
    overlay = system.overlay
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    sigma = full_subscription()
    subscriber = overlay.node_ids()[60]
    system.subscribe(subscriber, sigma)
    sim.run()
    keys = sorted(system.mapping.subscription_keys(sigma))
    victim = overlay.owner_of(keys[0])
    heir = overlay.successor_of(victim)
    # SK(σ) spans both nodes; the subscriber is neither.
    assert sigma.subscription_id in system.node(heir).store
    assert subscriber not in (victim, heir)
    old_arc = [k for k in keys if overlay.covers(victim, k)]
    system.crash_node(victim)
    sim.run()
    joiner = old_arc[0]  # node id == key: it covers that key exactly
    system.add_node(joiner)
    sim.run()
    assert sigma.subscription_id in system.node(joiner).store
    # A publication whose only rendezvous key in SK(σ) is the joiner's.
    event = next(
        event
        for a1 in range(1000, 30_001, 7)
        for event in [SPACE.make_event(**{**MATCHING, "a1": a1})]
        if system.mapping.event_keys(event) & set(keys) == {joiner}
    )
    system.publish(overlay.node_ids()[90], event)
    sim.run()
    assert [(n.subscription_id, n.matched_at) for n in received] == [
        (sigma.subscription_id, joiner)
    ]


def test_unsubscribe_cleans_replicas():
    sim, system = build_system(PubSubConfig(replication_factor=1))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    holders = rendezvous_nodes(system, sigma)
    system.unsubscribe(nodes[3], sigma)
    sim.run()
    for holder in holders:
        successor = system.overlay.successor_of(holder)
        replicas = system.node(successor).replicas.get(holder, {})
        assert sigma.subscription_id not in replicas
