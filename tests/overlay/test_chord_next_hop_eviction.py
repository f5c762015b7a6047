"""Regression tests: dead-node eviction must not race the next-hop scan.

The original ``_next_hop`` called ``self.forget`` (mutating the
location cache) while scanning a candidate list derived from it; the
sorted-table rewrite defers eviction until after the binary-search walk.
These tests pin the observable contract: with one or *several* crashed
cached nodes stacked in front of the key, routing still picks the
correct live hop, evicts every dead entry it examined, and leaves the
cache view consistent for subsequent messages.
"""

from __future__ import annotations

import random

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from tests.overlay.test_learn_batch import cache_view

KS = KeySpace(13)


def build(ids, cache=16):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=cache)
    overlay.build_ring(ids)
    return sim, overlay


def msg(src):
    return OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )


def test_single_crashed_cached_node_is_skipped_and_evicted():
    # 4300 owns the finger start nearest below the key (100 + 4096), so
    # no slot certifies the key's owner and the fallback scan runs.
    sim, overlay = build((100, 2000, 4000, 4300, 4600, 6000))
    node = overlay.node(100)
    node.learn([4600])
    overlay.crash(4600)
    assert node._next_hop(5000) == 4300
    assert 4600 not in node.cached_ids()


def test_stack_of_crashed_cached_nodes_walked_and_evicted():
    ids = tuple(range(100, 8100, 500))
    sim, overlay = build(ids, cache=32)
    node = overlay.node(100)
    # Cache several nodes that all precede the key, then crash the
    # closest three: the scan must walk left over every dead entry.
    # (The farthest finger, 4600, lies before all of them, so no slot
    # certifies the key's owner.)
    node.learn([5100, 5600, 6100, 6600])
    for dead in (5600, 6100, 6600):
        overlay.crash(dead)
    hop = node._next_hop(6700)
    assert hop == 5100
    for dead in (5600, 6100, 6600):
        assert dead not in node.cached_ids()
    assert 5100 in node.cached_ids()
    # The table stays consistent: a second lookup gets the same answer
    # without re-examining dead entries.
    assert node._next_hop(6700) == 5100


def test_route_through_crashed_cache_still_delivers_at_owner():
    ids = tuple(range(0, 8192, 64))
    sim, overlay = build(ids, cache=32)
    src = 0
    node = overlay.node(src)
    rng = random.Random(9)
    learned = rng.sample([i for i in ids if i != src], 12)
    node.learn(learned)
    crashed = learned[:5]
    for dead in crashed:
        overlay.crash(dead)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.payload)))
    for key in (513, 2049, 4097, 6145, 8191):
        overlay.send(src, key, msg(src))
    sim.run()
    # Every message still lands at the key's live owner, regardless of
    # how many dead cache entries the scans walked over.  (Dead entries
    # are evicted lazily: only the ones a scan examines are dropped,
    # matching the original behavior.)
    assert sorted(nid for nid, _ in delivered) == sorted(
        overlay.owner_of(k) for k in (513, 2049, 4097, 6145, 8191)
    )
    for nid, _ in delivered:
        assert overlay.is_alive(nid)


def test_forget_keeps_finger_entries_in_routing_table():
    ids = (100, 2000, 4000, 6000)
    sim, overlay = build(ids)
    node = overlay.node(100)
    target = overlay.compute_fingers(100)[0]
    # Learning a finger then forgetting it must not remove the finger
    # from routing: fingers are read off the ring, not the cache.
    node.learn([target])
    assert target in cache_view(node)
    node.forget(target)
    assert target not in node.cached_ids()
    assert node._next_hop(2100) == target  # slot 10 (start 1124) precedes 2100


def test_forget_drops_cached_non_finger_from_routing_table():
    ids = tuple(range(100, 8100, 500))
    sim, overlay = build(ids)
    node = overlay.node(100)
    fingers = overlay.compute_fingers(100)
    stranger = next(nid for nid in ids[1:] if nid not in fingers)
    node.learn([stranger])
    assert stranger in cache_view(node)
    node.forget(stranger)
    assert stranger not in node.cached_ids()
    assert stranger not in cache_view(node)


def test_forget_of_unknown_id_is_a_no_op():
    ids = tuple(range(100, 8100, 500))
    sim, overlay = build(ids)
    node = overlay.node(100)
    node.learn([3100])
    table, cached = cache_view(node), node.cached_ids()
    node.forget(3600)  # live, but neither cached nor a finger
    node.forget(12345 % KS.size)  # not even a node
    assert cache_view(node) == table
    assert node.cached_ids() == cached
