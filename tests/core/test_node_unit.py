"""PubSubNode unit behaviors: dedup windows, churn extraction edges."""

import random

from repro.core import EventSpace, PubSubSystem, Subscription
from repro.core.mappings import make_mapping
from repro.core.node import SEEN_PUBLICATIONS_LIMIT
from repro.core.payloads import Notification, ReplicaRemovePayload, SubscribePayload
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
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
    assert not system.config.buffering
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


def test_extract_entries_for_range_partial_and_total():
    sim, system = build()
    node = system.node(system.overlay.node_ids()[0])
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma, subscriber=3, ttl=None, groups=((5, 6, 7),)
    )
    node.store.put(payload, {5, 6, 7}, now=0.0)
    # Move keys 5 and 6 only: the entry stays with key 7.
    moved = node.extract_entries_for_range((4, 6))
    assert len(moved) == 1
    assert moved[0].keys_here == (5, 6)
    remaining = node.store.get(sigma.subscription_id)
    assert remaining is not None and remaining.keys_here == {7}
    # Move the rest: the entry leaves the store entirely.
    moved = node.extract_entries_for_range((6, 7))
    assert moved[0].keys_here == (7,)
    assert sigma.subscription_id not in node.store


def test_extract_entries_ignores_out_of_range():
    sim, system = build()
    node = system.node(system.overlay.node_ids()[0])
    sigma = Subscription.build(SPACE, a1=(0, 10))
    payload = SubscribePayload(
        subscription=sigma, subscriber=3, ttl=None, groups=((100,),)
    )
    node.store.put(payload, {100}, now=0.0)
    assert node.extract_entries_for_range((200, 300)) == []
    assert sigma.subscription_id in node.store


def test_promote_replicas_skips_expired():
    sim, system = build()
    sim.run_until(100.0)
    node = system.node(system.overlay.node_ids()[0])
    sigma_live = Subscription.build(SPACE, a1=(0, 10))
    sigma_dead = Subscription.build(SPACE, a1=(20, 30))
    from repro.core.payloads import StoredEntrySnapshot

    node.replicas[42] = {
        sigma_live.subscription_id: StoredEntrySnapshot(
            payload=SubscribePayload(
                subscription=sigma_live, subscriber=1, ttl=None, groups=((1,),)
            ),
            keys_here=(1,),
            expire_at=None,
        ),
        sigma_dead.subscription_id: StoredEntrySnapshot(
            payload=SubscribePayload(
                subscription=sigma_dead, subscriber=1, ttl=None, groups=((2,),)
            ),
            keys_here=(2,),
            expire_at=50.0,  # already past at t=100
        ),
    }
    promoted = node.promote_replicas(42)
    assert [s.payload.subscription.subscription_id for s in promoted] == [
        sigma_live.subscription_id
    ]
    assert sigma_live.subscription_id in node.store
    assert sigma_dead.subscription_id not in node.store
    assert 42 not in node.replicas
