"""Edge behaviors of the system facade not covered elsewhere."""

import random

from repro.core import (
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Subscription,
)
from repro.core.mappings import make_mapping
from repro.overlay.api import MessageKind, NeighborSide
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)
SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)


def build(config=None, n=80, seed=7, mapping="selective-attribute"):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    system = PubSubSystem(sim, overlay, make_mapping(mapping, SPACE, KS), config)
    return sim, system


def wide_subscription():
    return Subscription.build(
        SPACE, a1=(0, 50_000), a2=(0, 1_000_000),
        a3=(0, 1_000_000), a4=(0, 1_000_000),
    )


def test_unsubscribe_via_sequential_routing():
    sim, system = build(PubSubConfig(routing=RoutingMode.SEQUENTIAL))
    nodes = system.overlay.node_ids()
    sigma = wide_subscription()
    system.subscribe(nodes[0], sigma)
    sim.run()
    stored_before = sum(
        1 for n in nodes if sigma.subscription_id in system.node(n).store
    )
    assert stored_before > 0
    system.unsubscribe(nodes[0], sigma)
    sim.run()
    stored_after = sum(
        1 for n in nodes if sigma.subscription_id in system.node(n).store
    )
    assert stored_after == 0
    # The unsubscription request is accounted (it may cost zero hops if
    # the sole rendezvous happens to be the subscriber itself).
    assert (
        len(system.recorder.messages.requests_of_kind(MessageKind.UNSUBSCRIPTION))
        == 1
    )


def test_remove_node_stops_flush_timer():
    config = PubSubConfig(buffering=True, buffer_period=2.0)
    sim, system = build(config)
    victim = system.overlay.node_ids()[5]
    node = system.node(victim)
    sim.run_until(1.0)
    system.remove_node(victim)
    # Give the departed node something to flush: were its timer still
    # ticking, the next flush (t = 2.0) would drain this batch.
    from repro.core.payloads import Notification

    node.buffer.add(
        system.overlay.node_ids()[0],
        999,
        None,
        [Notification(event=SPACE.make_event(a1=1, a2=1, a3=1, a4=1),
                      subscription_id=999, matched_at=victim)],
    )
    sim.run_until(50.0)
    assert victim not in system.overlay.node_ids()
    assert len(node.buffer) == 1


def test_flush_timer_created_for_late_joiner():
    config = PubSubConfig(buffering=True, buffer_period=2.0)
    sim, system = build(config)
    new_id = next(k for k in range(KS.size) if not system.overlay.is_alive(k))
    system.add_node(new_id)
    # The new node's buffer flushes periodically like everyone else's:
    # give it a buffered notification and watch it drain.
    node = system.node(new_id)
    from repro.core.payloads import Notification

    node.buffer.add(
        system.overlay.node_ids()[0],
        999,
        None,
        [Notification(event=SPACE.make_event(a1=1, a2=1, a3=1, a4=1),
                      subscription_id=999, matched_at=new_id)],
    )
    sim.run_until(sim.now + 10.0)
    assert len(node.buffer) == 0


def test_collect_direction_can_be_predecessor():
    """A batch whose agent lies counter-clockwise travels via PRED."""
    sim, system = build(
        PubSubConfig(buffering=True, collecting=True, buffer_period=1.0)
    )
    nodes = system.overlay.node_ids()
    node = system.node(nodes[10])
    keyspace = system.overlay.keyspace
    # Construct an agent key just behind this node (counter-clockwise).
    agent_key = (nodes[10] - 2 * (nodes[10] - nodes[9])) % keyspace.size
    from repro.core.payloads import Notification

    node.buffer.add(
        nodes[0],
        123,
        agent_key,
        [Notification(event=SPACE.make_event(a1=1, a2=1, a3=1, a4=1),
                      subscription_id=123, matched_at=node.id)],
    )
    node.flush()
    # run_until, not run(): flush timers keep the queue alive forever.
    sim.run_until(sim.now + 30.0)
    # The batch funnelled through at least one predecessor-side COLLECT
    # hop and ultimately reached the subscriber as a notification.
    assert system.recorder.messages.total_sends(MessageKind.COLLECT) >= 1
    assert system.recorder.notification_batches == 1


def test_attribute_split_event_attribute_three():
    """Mapping 1 with a non-default EK attribute still satisfies the
    intersection rule end to end."""
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(8).sample(range(KS.size), 60))
    mapping = make_mapping(
        "attribute-split", SPACE, KS, event_attribute=3
    )
    system = PubSubSystem(sim, overlay, mapping)
    got = []
    system.set_global_notify_handler(lambda nid, ns: got.extend(ns))
    nodes = overlay.node_ids()
    sigma = wide_subscription()
    system.subscribe(nodes[0], sigma)
    sim.run()
    system.publish(
        nodes[30], SPACE.make_event(a1=10, a2=10, a3=10, a4=999_000)
    )
    sim.run()
    assert len(got) == 1
