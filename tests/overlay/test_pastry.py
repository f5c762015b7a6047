"""The Pastry-style prefix-routing overlay (portability substrate)."""

import random
import statistics
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.overlay.pastry.node import LEAF_SET_SIZE, common_prefix_length
from repro.sim import Simulator

KS = KeySpace(13)


def build(n=200, seed=1):
    sim = Simulator()
    overlay = PastryOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def send(overlay, src, key):
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=key,
        request_id=next_request_id(),
        origin=src,
    )
    overlay.send(src, key, message)


def test_common_prefix_length():
    assert common_prefix_length(0b1010, 0b1010, 4) == 4
    assert common_prefix_length(0b1010, 0b1011, 4) == 3
    assert common_prefix_length(0b1010, 0b0010, 4) == 0
    assert common_prefix_length(0, 0, 13) == 13


def test_leaf_set_contains_ring_neighbors():
    _, overlay = build(n=50)
    for node_id in overlay.node_ids()[:10]:
        leaves = overlay.compute_leaf_set(node_id)
        assert overlay.successor_of(node_id) in leaves
        assert overlay.predecessor_of(node_id) in leaves
        assert node_id not in leaves
        assert len(leaves) == LEAF_SET_SIZE == 8


def test_leaf_set_on_tiny_ring():
    _, overlay = build(n=3)
    for node_id in overlay.node_ids():
        leaves = overlay.compute_leaf_set(node_id)
        assert set(leaves) == set(overlay.node_ids()) - {node_id}


def test_routing_table_prefix_property():
    _, overlay = build(n=200)
    bits = KS.bits
    for node_id in overlay.node_ids()[:15]:
        table = overlay.compute_routing_table(node_id)
        assert len(table) == bits
        for position, entry in enumerate(table):
            if entry is None:
                continue
            assert common_prefix_length(node_id, entry, bits) == position


def test_unicast_delivers_at_owner():
    sim, overlay = build(n=300, seed=2)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.payload)))
    rng = random.Random(3)
    for _ in range(200):
        send(overlay, rng.choice(overlay.node_ids()), rng.randrange(KS.size))
    sim.run()
    assert len(delivered) == 200
    for node_id, key in delivered:
        assert overlay.owner_of(key) == node_id


def test_prefix_routing_hop_bound():
    sim, overlay = build(n=500, seed=4)
    hops = []
    overlay.set_deliver(lambda nid, m: hops.append(m.hops))
    rng = random.Random(5)
    for _ in range(300):
        send(overlay, rng.choice(overlay.node_ids()), rng.randrange(KS.size))
    sim.run()
    assert max(hops) <= KS.bits + 2
    assert statistics.mean(hops) < 8


def test_mcast_covers_all_owners():
    sim, overlay = build(n=150, seed=6)
    got = []
    overlay.set_deliver(lambda nid, m: got.append(nid))
    src = overlay.node_ids()[0]
    keys = [k % KS.size for k in range(4000, 5500)]
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )
    overlay.mcast(src, keys, message)
    sim.run()
    expected = {overlay.owner_of(k) for k in keys}
    assert set(got) == expected
    # At-most-once is not guaranteed (documented); bound the waste.
    duplicates = sum(count - 1 for count in Counter(got).values())
    assert duplicates <= len(expected) // 2


def test_sequential_cast_covers_all_owners():
    sim, overlay = build(n=100, seed=7)
    got = []
    overlay.set_deliver(lambda nid, m: got.append(nid))
    src = overlay.node_ids()[0]
    keys = [k % KS.size for k in range(100, 600)]
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )
    overlay.sequential_cast(src, keys, message)
    sim.run()
    assert set(got) == {overlay.owner_of(k) for k in keys}


def test_membership_shared_semantics_with_chord():
    _, overlay = build(n=10, seed=8)
    node_ids = overlay.node_ids()
    overlay.leave(node_ids[3])
    assert not overlay.is_alive(node_ids[3])
    assert overlay.owner_of(node_ids[3]) == node_ids[4 % len(node_ids)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, KS.size - 1), st.integers(0, 10**6))
def test_property_unicast_reaches_owner(key, seed):
    sim, overlay = build(n=60, seed=seed % 40 + 1)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    send(overlay, overlay.node_ids()[seed % 60], key)
    sim.run()
    assert delivered == [overlay.owner_of(key)]


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(0, KS.size - 1), min_size=1, max_size=150))
def test_property_mcast_complete_coverage(keys):
    sim, overlay = build(n=90, seed=12)
    got = []
    overlay.set_deliver(lambda nid, m: got.append(nid))
    src = overlay.node_ids()[0]
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )
    overlay.mcast(src, keys, message)
    sim.run()
    assert set(got) == {overlay.owner_of(k) for k in keys}
