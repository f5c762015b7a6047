"""Maintenance counters across the three overlays.

Chord and Pastry count one rebuild per stale read (pinned in detail by
their incremental suites), and CAN splits rebuilds from patches (an
unchanged zone re-read); here the read surface is checked on Pastry and
CAN and the shared registry plumbing on a telemetry-enabled network.
"""

import random

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.telemetry import Telemetry

KS = KeySpace(10)


def _ids(n, seed=3):
    return random.Random(seed).sample(range(KS.size), n)


def test_pastry_counts_rebuilds_on_churn():
    sim = Simulator()
    overlay = PastryOverlay(sim, KS)
    overlay.build_ring(_ids(20))
    node = overlay.node(overlay.node_ids()[0])
    assert node.table_rebuilds == 0
    node.routing_table()
    assert node.table_rebuilds == 1  # cold start: wholesale computation
    node.leaf_set()  # same version: memoized, no extra rebuild
    assert node.table_rebuilds == 1
    joiner = next(i for i in range(KS.size) if not overlay.is_alive(i))
    overlay.join(joiner)
    assert overlay.node(joiner).table_rebuilds == 0  # a joiner starts cold
    node.routing_table()
    assert node.table_rebuilds == 2  # stale: recomputed once


def test_can_counts_rebuilds_and_patches_on_zone_changes():
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(_ids(16))
    node = overlay.node(overlay.node_ids()[0])
    assert node.table_rebuilds == 0
    node.cells()
    assert node.table_rebuilds == 1
    node.cells()  # memoized per zone version
    assert node.table_rebuilds == 1
    # A departure elsewhere (our node is not the heir) leaves our zone
    # untouched: consuming the delta is a patch, not a rebuild.
    victim = overlay.node_ids()[2]
    assert overlay.heir_of(victim) != node.id
    overlay.leave(victim)
    node.cells()
    assert node.table_rebuilds == 1
    assert node.table_patches == 1
    # Absorbing a zone (we are the heir) recomputes the decomposition.
    victim = overlay.node_ids()[1]
    assert overlay.heir_of(victim) == node.id
    overlay.leave(victim)
    node.cells()
    assert node.table_rebuilds == 2
    assert node.table_patches == 1


def test_departed_nodes_keep_their_maintenance_counts():
    """Totals must not shrink when a counted node leaves or crashes.

    ``maintenance_totals()`` = live nodes' counters + the counts the
    overlay accumulated from departed nodes at unregister time.  Before
    that accumulation, a churn run's totals silently dropped exactly
    the departed nodes' work.
    """
    for overlay_cls in (ChordOverlay, PastryOverlay, CanOverlay):
        sim = Simulator()
        overlay = overlay_cls(sim, KS)
        overlay.build_ring(_ids(16))
        ids = list(overlay.node_ids())
        for node_id in ids[:4]:
            node = overlay.node(node_id)
            # Materialize routing state so the node has rebuild counts.
            if hasattr(node, "fingers"):
                node.fingers()
            elif hasattr(node, "routing_table"):
                node.routing_table()
            else:
                node.cells()
        before = overlay.maintenance_totals()["table_rebuilds"]
        assert overlay.node(ids[1]).table_rebuilds >= 1
        assert before >= 4
        overlay.leave(ids[1])
        after_leave = overlay.maintenance_totals()["table_rebuilds"]
        assert after_leave >= before, overlay_cls.__name__
        overlay.crash(ids[2])
        assert (
            overlay.maintenance_totals()["table_rebuilds"] >= after_leave
        ), overlay_cls.__name__


def test_counters_aggregate_in_an_enabled_registry():
    telemetry = Telemetry()
    sim = Simulator()
    network = Network(sim, telemetry=telemetry)
    overlay = ChordOverlay(sim, KS, network=network)
    overlay.build_ring(_ids(12))
    for node_id in overlay.node_ids():
        overlay.node(node_id).fingers()
    registry = telemetry.registry
    total = registry.total("chord.table_rebuilds")
    assert total == sum(
        overlay.node(i).table_rebuilds for i in overlay.node_ids()
    )
    assert total >= 12
    assert registry.snapshot()["chord.table_rebuilds"] == total


def test_chord_instruments_are_made_on_first_increment():
    telemetry = Telemetry()
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, network=Network(sim, telemetry=telemetry))
    overlay.build_ring(_ids(12))
    registry = telemetry.registry

    def instruments(name):
        return [c for c in registry.counters() if c.name == name]

    node = overlay.node(overlay.node_ids()[0])
    assert node.table_rebuilds == 0
    assert instruments("chord.table_rebuilds") == []  # a cold ring counted nothing
    node.fingers()
    assert node.table_rebuilds == 1
    assert [c.labels for c in instruments("chord.table_rebuilds")] == [
        (("node", node.id),)
    ]
    joiner = next(i for i in range(KS.size) if not overlay.is_alive(i))
    overlay.join(joiner)  # the joiner starts cold: no instrument yet
    assert overlay.node(joiner).table_rebuilds == 0
    assert len(instruments("chord.table_rebuilds")) == 1
    node.fingers()  # stale: one more re-resolve on the same instrument
    assert node.table_rebuilds == 2
    assert len(instruments("chord.table_rebuilds")) == 1
    assert registry.total("chord.table_rebuilds") == sum(
        overlay.node(i).table_rebuilds for i in overlay.node_ids()
    )


def test_network_drop_counters_are_registry_views():
    telemetry = Telemetry()
    sim = Simulator()
    network = Network(sim, telemetry=telemetry)
    overlay = ChordOverlay(sim, KS, network=network)
    overlay.build_ring(_ids(8))
    ids = overlay.node_ids()
    message = OverlayMessage(
        kind=MessageKind.CONTROL,
        payload=None,
        request_id=next_request_id(),
        origin=ids[0],
    )
    network.transmit(ids[0], ids[1], message)
    overlay.crash(ids[1])  # dies while the message is in flight
    sim.run()
    assert network.dropped == 1
    assert telemetry.registry.total("network.dropped") == 1


def test_can_node_state_is_made_on_demand():
    """A CAN node that only delivers holds no counter, no express keys
    and no m-cast pointers; the first route makes exactly what it used,
    and the first m-cast it forwards makes its pointers."""
    telemetry = Telemetry()
    sim = Simulator()
    overlay = CanOverlay(sim, KS, network=Network(sim, telemetry=telemetry))
    overlay.build_ring(_ids(12))
    registry = telemetry.registry
    names = ("can.table_rebuilds", "can.table_patches")

    def made():
        return sorted(c.name for c in registry.counters() if c.name in names)

    def send(source, key):
        message = OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.send(source, key, message)
        sim.run()

    delivered = []
    overlay.set_deliver(lambda node_id, message: delivered.append(node_id))
    node = overlay.node(overlay.node_ids()[0])
    send(node.id, node.id)  # own key: delivered where it was sent
    assert delivered == [node.id]
    assert made() == []
    assert node._express_keys is None and node._express_points is None
    assert (node.table_rebuilds, node.table_patches) == (0, 0)

    far = (node.id + KS.size // 2) % KS.size
    send(node.id, far)
    assert delivered[-1] == overlay.owner_of(far)
    assert (node.table_rebuilds, node.table_patches) == (1, 0)
    assert len(node._express_points) == KS.bits
    assert "can.table_patches" not in made()
    assert node._mcast is None  # unicast does not read the pointers

    def cast(source, keys):
        message = OverlayMessage(
            kind=MessageKind.SUBSCRIPTION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.mcast(source, keys, message)
        sim.run()

    cast(node.id, [node.id])  # delivered where it was sent
    assert node._mcast is None
    cast(node.id, [node.id, far])
    assert node._mcast[0] == overlay.zone_version
    assert (node.table_rebuilds, node.table_patches) == (1, 0)
