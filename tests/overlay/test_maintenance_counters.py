"""Maintenance counters across the three overlays.

Chord counts one rebuild per stale read (pinned in detail by its
incremental suite), CAN splits rebuilds from patches (an unchanged
zone re-read), and Pastry, which holds no routing state, counts
nothing.  Every count lives on the overlay, in one unlabelled registry
counter per kind of count, so ``maintenance_totals()`` reads it
directly; here it is checked on CAN, across departures, and in a
telemetry-enabled registry.
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
OVERLAYS = (ChordOverlay, PastryOverlay, CanOverlay)


def _ids(n, seed=3):
    return random.Random(seed).sample(range(KS.size), n)


def counts(overlay):
    """The overlay's run-wide ``(rebuilds, patches)``."""
    totals = overlay.maintenance_totals()
    return totals["table_rebuilds"], totals["table_patches"]


def _sync(node):
    """Bring one node's routing state current, whatever its overlay: a
    Pastry node has none, so it routes one key off the ring instead."""
    if hasattr(node, "fingers"):
        node.fingers()
    elif hasattr(node, "cells"):
        node.cells()
    else:
        node._next_hop((node.id + KS.size // 2) % KS.size)


def test_can_counts_rebuilds_and_patches_on_zone_changes():
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(_ids(16))
    node = overlay.node(overlay.node_ids()[0])
    assert node.audit_state()[0] == -1
    assert counts(overlay) == (0, 0)
    node.cells()
    assert counts(overlay) == (1, 0)
    node.cells()  # memoized per zone version
    assert counts(overlay) == (1, 0)
    # A departure elsewhere (our node is not the heir) leaves our zone
    # untouched: re-reading it is a patch, not a rebuild.
    victim = overlay.node_ids()[2]
    assert overlay.heir_of(victim) != node.id
    overlay.leave(victim)
    node.cells()
    assert counts(overlay) == (1, 1)
    # Absorbing a zone (we are the heir) recomputes the decomposition.
    victim = overlay.node_ids()[1]
    assert overlay.heir_of(victim) == node.id
    overlay.leave(victim)
    node.cells()
    assert counts(overlay) == (2, 1)


def test_departed_nodes_keep_their_maintenance_counts():
    """Totals do not move when a counted node leaves or crashes: the
    counts are the overlay's, so a departing node takes none with it."""
    for overlay_cls in OVERLAYS:
        sim = Simulator()
        overlay = overlay_cls(sim, KS)
        overlay.build_ring(_ids(16))
        ids = list(overlay.node_ids())
        for node_id in ids[:4]:
            _sync(overlay.node(node_id))
        before = overlay.maintenance_totals()
        assert before["table_rebuilds"] == (0 if overlay_cls is PastryOverlay else 4)
        overlay.leave(ids[1])
        assert overlay.maintenance_totals() == before, overlay_cls.__name__
        overlay.crash(ids[2])
        assert overlay.maintenance_totals() == before, overlay_cls.__name__


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
    assert total == overlay.maintenance_totals()["table_rebuilds"] == 12
    assert registry.snapshot()["chord.table_rebuilds"] == total


def test_each_count_is_one_unlabelled_instrument_per_overlay():
    """However many nodes sync, rebuild or patch, a telemetry-enabled
    registry holds one unlabelled ``<kind>.table_rebuilds`` and one
    ``<kind>.table_patches``, and they read what the overlay reports."""
    for overlay_cls in OVERLAYS:
        telemetry = Telemetry()
        sim = Simulator()
        overlay = overlay_cls(sim, KS, network=Network(sim, telemetry=telemetry))
        overlay.build_ring(_ids(12))
        for _ in range(2):
            for node_id in overlay.node_ids():
                _sync(overlay.node(node_id))
            overlay.leave(overlay.node_ids()[3])
        totals = overlay.maintenance_totals()
        if overlay_cls is PastryOverlay:
            assert totals["table_rebuilds"] == totals["table_patches"] == 0
        else:
            assert totals["table_rebuilds"] > 12
        if overlay_cls is CanOverlay:
            assert totals["table_patches"] > 0
        for count in ("table_rebuilds", "table_patches"):
            name = f"{overlay.kind}.{count}"
            made = [c for c in telemetry.registry.counters() if c.name == name]
            assert [(c.labels, c.value) for c in made] == [((), totals[count])]


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
    """A CAN node that only delivers holds no zone state, no express keys
    and no m-cast pointers; the first route makes exactly what it used,
    and the first m-cast it forwards makes its pointers."""
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(_ids(12))

    def send(source, key):
        message = OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.send(source, key, message)
        sim.run()

    def warm():  # every node that read its zone did so once: a rebuild
        return sum(overlay.node(n).audit_state()[0] != -1 for n in overlay.node_ids())

    delivered = []
    overlay.set_deliver(lambda node_id, message: delivered.append(node_id))
    node = overlay.node(overlay.node_ids()[0])
    send(node.id, node.id)  # own key: delivered where it was sent
    assert delivered == [node.id]
    assert node.audit_state()[0] == -1
    assert node._express_keys is None and node._express_points is None
    assert counts(overlay) == (0, 0)

    far = (node.id + KS.size // 2) % KS.size
    send(node.id, far)
    assert delivered[-1] == overlay.owner_of(far)
    assert node.audit_state()[0] == overlay.zone_version
    assert counts(overlay) == (warm(), 0)
    assert len(node._express_points) == KS.bits
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
    assert counts(overlay) == (warm(), 0)
