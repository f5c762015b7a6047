"""Maintenance counters across the three overlays.

Chord counts one rebuild per stale read (pinned in detail by its
incremental suite).  CAN and Pastry count nothing: a CAN zone is the
overlay's own geometry table and a Pastry node reads the ring at every
hop, so neither holds state that lags membership.  Every count lives on
the overlay, in one unlabelled registry counter, so
``maintenance_totals()`` reads it directly; here it is checked across
departures and in a telemetry-enabled registry.
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


def _sync(node):
    """Bring one node's routing state current, whatever its overlay: a
    Pastry or CAN node has none to bring, so it routes one key instead."""
    if hasattr(node, "fingers"):
        node.fingers()
    else:
        node._next_hop((node.id + KS.size // 2) % KS.size)


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
        assert before["table_rebuilds"] == (4 if overlay_cls is ChordOverlay else 0)
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
    """However many nodes sync, a telemetry-enabled registry holds one
    unlabelled ``<kind>.table_rebuilds``, and it reads what the overlay
    reports.  No overlay makes a ``table_patches`` counter: the total
    reads 0, as ``table_seeds`` does."""
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
        if overlay_cls is ChordOverlay:
            assert totals["table_rebuilds"] > 12
        else:
            assert totals["table_rebuilds"] == 0
        assert totals["table_patches"] == totals["table_seeds"] == 0
        counters = list(telemetry.registry.counters())
        name = f"{overlay.kind}.table_rebuilds"
        made = [c for c in counters if c.name == name]
        assert [(c.labels, c.value) for c in made] == [((), totals["table_rebuilds"])]
        assert not any(c.name.endswith(".table_patches") for c in counters)


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
    """A CAN node holds its id, its overlay, its location cache and its
    m-cast pointers, and nothing else: its zone and express links are
    read off the overlay.  The pointers are made by the first m-cast it
    forwards; a unicast does not read them."""
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(_ids(12))
    node = overlay.node(overlay.node_ids()[0])
    assert set(vars(node)) == {"id", "_overlay", "_cache", "_mcast"}

    def send(source, key):
        message = OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.send(source, key, message)
        sim.run()

    def cast(source, keys):
        message = OverlayMessage(
            kind=MessageKind.SUBSCRIPTION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.mcast(source, keys, message)
        sim.run()

    far = (node.id + KS.size // 2) % KS.size
    send(node.id, far)
    assert node._mcast is None  # unicast does not read the pointers
    cast(node.id, [node.id])  # delivered where it was sent
    assert node._mcast is None
    cast(node.id, [node.id, far])
    assert node._mcast[0] == overlay.zone_version
    assert overlay.maintenance_totals()["table_rebuilds"] == 0
