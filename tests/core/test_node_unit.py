"""PubSubNode unit behaviors: dedup windows, churn extraction edges."""

import random

from repro.core import EventSpace, PubSubSystem, Subscription
from repro.core.mappings import make_mapping
from repro.core.node import SEEN_PUBLICATIONS_LIMIT
from repro.core.payloads import (
    Notification,
    ReplicaRemovePayload,
    StoredSubscription,
    SubscribePayload,
)
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeyRuns, KeySpace
from repro.sim import Simulator

KS = KeySpace(13)
SPACE = EventSpace.uniform(("a1", "a2"), 1000)


def build(n=20, seed=6):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    system = PubSubSystem(
        sim, overlay, make_mapping("keyspace-split", SPACE, KS)
    )
    return sim, system


def test_a_node_that_only_routes_holds_no_containers():
    sim, system = build()
    assert system.config.notification == "direct"
    nodes = [system.node(node_id) for node_id in system.overlay.node_ids()]
    # Route one publication across the ring: under keyspace-split it
    # reaches a few rendezvous nodes, and every other node only routes.
    system.publish(nodes[0].id, SPACE.make_event(a1=500, a2=500))
    sim.run()
    routers = [node for node in nodes if node._seen_publications is None]
    assert len(routers) < len(nodes)
    assert routers
    for node in nodes:
        assert node.buffer is None
        assert node._seen_notifications is None
        assert node._replicas is None
    # With no shelves, losing a neighbor promotes nothing and a replica
    # removal finds nothing to drop; neither makes a shelf.
    node = routers[0]
    assert node.promote_replicas(crashed_owner=42) == []
    node._handle_replica_remove(
        ReplicaRemovePayload(owner=42, subscription_id=7, remaining=1), None
    )
    assert node._replicas is None
    assert node.replicas == {}  # reading makes the shelves


def test_fresh_notifications_dedupes_and_bounds():
    sim, system = build()
    node = system.node(system.overlay.node_ids()[0])
    event = SPACE.make_event(a1=1, a2=2)
    first = Notification(event=event, subscription_id=9, matched_at=0)
    duplicate = Notification(event=event, subscription_id=9, matched_at=5)
    assert node.fresh_notifications((first,)) == [first]
    assert node.fresh_notifications((duplicate,)) == []
    other = Notification(event=event, subscription_id=10, matched_at=0)
    assert node.fresh_notifications((other,)) == [other]
    # The window is bounded: old entries eventually fall out.
    for index in range(SEEN_PUBLICATIONS_LIMIT + 10):
        filler = Notification(
            event=SPACE.make_event(a1=index % 1000, a2=0),
            subscription_id=index,
            matched_at=0,
        )
        node.fresh_notifications((filler,))
    # The original pair has been evicted and would deliver again.
    assert node.fresh_notifications((first,)) == [first]


def widest(system):
    """The node with the longest span, its span and the key-space size."""
    overlay = system.overlay
    node_id = max(overlay.node_ids(), key=lambda i: overlay.node(i).owned_span()[1])
    return system.node(node_id), overlay.node(node_id).owned_span(), KS.size


def test_held_keys_are_sk_within_the_span():
    sim, system = build()
    node, (start, length), size = widest(system)
    inside = [(start + offset) % size for offset in (0, length // 2, length - 1)]
    outside = [(start + length) % size, (start - 1) % size]
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma,
        subscriber=3,
        ttl=None,
        groups=(
            KeyRuns.from_keys((outside[0], inside[0])),
            KeyRuns.from_keys((inside[1], outside[1], inside[2])),
        ),
    )
    entry = node.store.put(payload, None, now=0.0)
    assert set(node.held_keys(entry)) == set(inside)
    assert all(system.overlay.covers(node.id, key) for key in inside)


def test_extract_entries_for_range_partial_and_total():
    sim, system = build()
    node, (start, length), size = widest(system)
    assert length >= 3
    k0, k1, k2 = ((start + offset) % size for offset in range(3))
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma,
        subscriber=3,
        ttl=None,
        groups=(KeyRuns.from_keys((k0, k1, k2)),),
    )
    entry = node.store.put(payload, None, now=0.0)
    # Move k0 and k1 only: the entry ships and stays, held for k2.
    moved = node.extract_entries_for_range(((k0 - 1) % size, k1))
    assert moved == [entry]
    assert node.store.get(sigma.subscription_id) is entry
    # Move all three: no key of SK(σ) is left in the span, so it goes.
    moved = node.extract_entries_for_range(((k0 - 1) % size, k2))
    assert moved == [entry]
    assert sigma.subscription_id not in node.store


def test_extract_drops_an_entry_with_no_key_left_in_the_span():
    # SK(σ) also names a key outside this node's span: once the key it
    # held moves, the node has no key of σ left and drops it.
    sim, system = build()
    node, (start, length), size = widest(system)
    far = (start + length) % size
    assert not system.overlay.covers(node.id, far)
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma,
        subscriber=3,
        ttl=None,
        groups=(KeyRuns.from_keys((start, far)),),
    )
    node.store.put(payload, None, now=0.0)
    moved = node.extract_entries_for_range(((start - 1) % size, start))
    assert [e.subscription for e in moved] == [sigma]
    assert sigma.subscription_id not in node.store


def test_extract_entries_ignores_out_of_range():
    sim, system = build()
    node = system.node(system.overlay.node_ids()[0])
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma, subscriber=3, ttl=None, groups=(KeyRuns((100, 1)),)
    )
    node.store.put(payload, None, now=0.0)
    assert node.extract_entries_for_range((200, 300)) == []
    assert sigma.subscription_id in node.store


def test_promote_replicas_skips_expired():
    sim, system = build()
    sim.run_until(100.0)
    node = system.node(system.overlay.node_ids()[0])
    sigma_live = Subscription.build(SPACE, a1=(0, 10))
    sigma_dead = Subscription.build(SPACE, a1=(20, 30))
    live = StoredSubscription(
        payload=SubscribePayload(
            subscription=sigma_live,
            subscriber=1,
            ttl=None,
            groups=(KeyRuns((1, 1)),),
        ),
        expire_at=None,
    )
    node.replicas[42] = {
        sigma_live.subscription_id: live,
        sigma_dead.subscription_id: StoredSubscription(
            payload=SubscribePayload(
                subscription=sigma_dead,
                subscriber=1,
                ttl=None,
                groups=(KeyRuns((2, 1)),),
            ),
            expire_at=50.0,  # already past at t=100
        ),
    }
    promoted = node.promote_replicas(42)
    assert promoted == [live]
    assert node.store.get(sigma_live.subscription_id) is live
    assert sigma_dead.subscription_id not in node.store
    assert 42 not in node.replicas
