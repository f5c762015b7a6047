"""Maintenance counts across the three overlays: there are none.

No node holds state that lags membership: a CAN zone is the overlay's
own geometry table, and a Chord or Pastry node reads its fingers, or
its leaf span and prefix row, off the ring at every hop.  So no overlay
makes a ``<kind>.table_*`` registry counter, and
``maintenance_totals()`` reads 0 for all three of its keys, across
routing, departures and a telemetry-enabled registry.  (The test names
are historical: they pinned Chord's rebuild counter.)
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


ZERO = {"table_rebuilds": 0, "table_patches": 0, "table_seeds": 0}


def _sync(node):
    """Route one key across the ring from ``node``, whatever its overlay."""
    node._next_hop((node.id + KS.size // 2) % KS.size)


def test_departed_nodes_keep_their_maintenance_counts():
    """Totals read 0 after routing, and a leave or a crash moves none."""
    for overlay_cls in OVERLAYS:
        sim = Simulator()
        overlay = overlay_cls(sim, KS)
        overlay.build_ring(_ids(16))
        ids = list(overlay.node_ids())
        for node_id in ids[:4]:
            _sync(overlay.node(node_id))
        assert overlay.maintenance_totals() == ZERO, overlay_cls.__name__
        overlay.leave(ids[1])
        assert overlay.maintenance_totals() == ZERO, overlay_cls.__name__
        overlay.crash(ids[2])
        assert overlay.maintenance_totals() == ZERO, overlay_cls.__name__


def test_counters_aggregate_in_an_enabled_registry():
    telemetry = Telemetry()
    sim = Simulator()
    network = Network(sim, telemetry=telemetry)
    overlay = ChordOverlay(sim, KS, network=network)
    overlay.build_ring(_ids(12))
    for node_id in overlay.node_ids():
        _sync(overlay.node(node_id))
    registry = telemetry.registry
    assert registry.total("chord.table_rebuilds") == 0
    assert "chord.table_rebuilds" not in registry.snapshot()
    assert overlay.maintenance_totals() == ZERO


def test_each_count_is_one_unlabelled_instrument_per_overlay():
    """However many nodes route, a telemetry-enabled registry holds no
    ``<kind>.table_*`` counter, and every total reads 0."""
    for overlay_cls in OVERLAYS:
        telemetry = Telemetry()
        sim = Simulator()
        overlay = overlay_cls(sim, KS, network=Network(sim, telemetry=telemetry))
        overlay.build_ring(_ids(12))
        for _ in range(2):
            for node_id in overlay.node_ids():
                _sync(overlay.node(node_id))
            overlay.leave(overlay.node_ids()[3])
        assert overlay.maintenance_totals() == ZERO, overlay_cls.__name__
        counters = list(telemetry.registry.counters())
        assert not any(".table_" in c.name for c in counters)


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
    """A CAN node holds its id, its overlay and its location cache, and
    nothing else: its zone, express links and m-cast pointers are read
    off the overlay, and neither a unicast nor an m-cast leaves
    anything behind on it."""
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(_ids(12))
    node = overlay.node(overlay.node_ids()[0])
    state = {"id", "_overlay", "_cache"}
    assert set(vars(node)) == state

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
    cast(node.id, [node.id])  # delivered where it was sent
    cast(node.id, [node.id, far])
    assert set(vars(node)) == state
    assert overlay.maintenance_totals() == ZERO
