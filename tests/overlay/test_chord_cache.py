"""The per-node location cache: learning, eviction, liveness checks."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.overlay.api import (
    MessageKind,
    NeighborSide,
    OverlayMessage,
    next_request_id,
)
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(cache=8, ids=(100, 2000, 4000, 6000)):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=cache)
    overlay.build_ring(ids)
    return sim, overlay


def test_learn_and_order():
    _, overlay = build()
    node = overlay.node(100)
    node.learn([2000, 4000])
    node.learn([2000])  # refresh: moves to most-recent
    assert node.cached_ids() == [4000, 2000]


def test_learn_ignores_self():
    _, overlay = build()
    node = overlay.node(100)
    node.learn([100, 2000])
    assert node.cached_ids() == [2000]


def test_lru_eviction_at_capacity():
    _, overlay = build(cache=2)
    node = overlay.node(100)
    node.learn([2000])
    node.learn([4000])
    node.learn([6000])  # evicts 2000
    assert node.cached_ids() == [4000, 6000]


def test_capacity_zero_disables_learning():
    _, overlay = build(cache=0)
    node = overlay.node(100)
    node.learn([2000, 4000])
    assert node.cached_ids() == []


def test_negative_capacity_is_rejected():
    with pytest.raises(ConfigurationError, match="cache_capacity"):
        ChordOverlay(Simulator(), KS, cache_capacity=-5)


def test_forget():
    _, overlay = build()
    node = overlay.node(100)
    node.learn([2000])
    node.forget(2000)
    node.forget(2000)  # idempotent
    assert node.cached_ids() == []


def test_dead_cache_entry_skipped_and_forgotten():
    # 4300 owns the finger start nearest below the key, so no slot
    # certifies the key's owner and the fallback scan runs.
    sim, overlay = build(cache=8, ids=(100, 2000, 4000, 4300, 4600, 6000))
    node = overlay.node(100)
    node.learn([4600])
    overlay.crash(4600)
    # Routing past 4600's position examines (and evicts) the dead entry.
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=None,
        request_id=next_request_id(), origin=100,
    )
    overlay.send(100, 5000, message)  # beyond 4600; owner is 6000
    sim.run()
    assert delivered == [overlay.owner_of(5000)] == [6000]
    assert 4600 not in node.cached_ids()


def test_cache_enables_one_hop_shortcut():
    """A cached node preceding-or-equal to the key is reached directly.

    (An owner *past* the key is reached directly only when the cache
    holds the arc it stamped: see ``test_cached_arc_*`` in
    ``test_chord_owned_arcs.py``.)"""
    sim, overlay = build(cache=8)
    source = overlay.node(100)
    source.learn([6000])
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=None,
        request_id=next_request_id(), origin=100,
    )
    overlay.send(100, 6000, message)  # key == cached node id
    sim.run()
    assert delivered == [(6000, 1)]


def test_receiving_messages_populates_cache():
    sim, overlay = build(cache=8)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=None,
        request_id=next_request_id(), origin=100,
    )
    overlay.send(100, 5500, message)
    sim.run()
    receiver = overlay.node(delivered[0])
    assert 100 in receiver.cached_ids()  # learned the origin


def test_neighbor_send_teaches_the_sender_and_the_origin():
    """A one-hop send is a ``forwarded_copy``: its path names the sender
    bare (no arc stamped), and the receiver learns it and the origin."""
    sim, overlay = build(cache=8)
    message = OverlayMessage(
        kind=MessageKind.CONTROL, payload=None,
        request_id=next_request_id(), origin=6000,
    )
    overlay.send_to_neighbor(2000, NeighborSide.SUCCESSOR, message)
    sim.run()
    receiver = overlay.node(4000)
    assert receiver.cached_ids() == [2000, 6000]
    assert receiver._cache.entries == {2000: None, 6000: None}  # pointers, not arcs
