"""The CAN overlay: Morton machinery, zones, routing, churn."""

import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OverlayError
from repro.overlay.api import MessageKind, NeighborSide, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay, morton_decode, morton_encode, zone_rectangle
from repro.overlay.can.morton import (
    axis_sizes,
    decompose,
    rect_closest_point,
    torus_delta,
)
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(n=150, seed=1, **flags):
    sim = Simulator()
    overlay = CanOverlay(sim, KS, **flags)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


# -- Morton machinery ---------------------------------------------------------

def test_axis_sizes():
    assert axis_sizes(13) == (128, 64)
    assert axis_sizes(4) == (4, 4)


@given(st.integers(0, KS.size - 1))
def test_property_morton_roundtrip(key):
    x, y = morton_decode(key, 13)
    assert morton_encode(x, y, 13) == key
    assert 0 <= x < 128 and 0 <= y < 64


def test_morton_encode_bounds():
    with pytest.raises(OverlayError):
        morton_encode(128, 0, 13)
    with pytest.raises(OverlayError):
        morton_encode(0, 64, 13)


def test_zone_rectangle_whole_space():
    assert zone_rectangle(0, KS.size, 13) == (0, 0, 128, 64)


def test_zone_rectangle_quadrants():
    # Splitting the 13-bit space in half splits the x axis (MSB is x).
    x0, y0, w, h = zone_rectangle(0, 4096, 13)
    assert (w, h) == (64, 64)
    x1, _, _, _ = zone_rectangle(4096, 4096, 13)
    assert x1 == 64 and x0 == 0


def test_zone_rectangle_validation():
    with pytest.raises(OverlayError):
        zone_rectangle(0, 3, 13)  # not a power of two
    with pytest.raises(OverlayError):
        zone_rectangle(2, 4, 13)  # misaligned


@given(st.integers(0, KS.size - 1), st.integers(1, KS.size))
def test_property_decompose_covers_exactly(start, length):
    if start + length > KS.size:
        length = KS.size - start
        if length == 0:
            return
    cells = decompose(start, length, 13)
    covered = []
    for cell_start, cell_size in cells:
        assert cell_start % cell_size == 0  # aligned
        assert cell_size & (cell_size - 1) == 0  # power of two
        covered.extend(range(cell_start, cell_start + cell_size))
    assert covered == list(range(start, start + length))


def test_torus_delta():
    assert torus_delta(0, 3, 8) == 3
    assert torus_delta(3, 0, 8) == -3
    assert torus_delta(7, 0, 8) == 1  # wrap forward
    assert torus_delta(0, 7, 8) == -1  # wrap backward
    assert torus_delta(5, 5, 8) == 0


def test_rect_closest_point_inside_and_outside():
    rect = (2, 2, 4, 4)  # x in [2,6), y in [2,6)
    assert rect_closest_point(rect, 3, 3, 16, 16) == (3, 3)  # inside
    assert rect_closest_point(rect, 10, 3, 16, 16) == (5, 3)  # right edge
    assert rect_closest_point(rect, 3, 0, 16, 16) == (3, 2)  # below
    # Torus wrap: x=15 is closer to the left edge (x=2) than the right.
    px, py = rect_closest_point(rect, 15, 3, 16, 16)
    assert (px, py) == (2, 3)


# -- zones and membership -------------------------------------------------------

def test_zones_partition_key_space():
    _, overlay = build()
    total = sum(overlay.zone_of(n)[1] for n in overlay.node_ids())
    assert total == KS.size


def test_every_node_covers_its_own_id():
    _, overlay = build(n=200, seed=2)
    for node_id in overlay.node_ids():
        assert overlay.covers(node_id, node_id)


def test_join_state_transfer_hook_covers_moved_interval():
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring([1000])
    calls = []
    overlay.set_state_transfer(lambda f, t, r: calls.append((f, t, r)))
    overlay.join(5000)
    assert len(calls) == 1
    from_node, to_node, (left, right) = calls[0]
    assert from_node == 1000 and to_node == 5000
    # The moved interval (left, right] is exactly the joiner's zone.
    start, length = overlay.zone_of(5000)
    assert (left + 1) % KS.size == start
    assert (right - left) % KS.size == length


def test_leave_returns_zone_to_heir():
    _, overlay = build(n=30, seed=3)
    victim = overlay.node_ids()[5]
    heir = overlay.heir_of(victim)
    heir_before = overlay.zone_of(heir)[1]
    victim_length = overlay.zone_of(victim)[1]
    overlay.leave(victim)
    assert overlay.zone_of(heir)[1] == heir_before + victim_length


def test_heir_is_morton_predecessor():
    _, overlay = build(n=20, seed=4)
    node = overlay.node_ids()[3]
    assert overlay.heir_of(node) == overlay.predecessor_of(node)


def test_last_node_protected():
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring([42])
    with pytest.raises(OverlayError):
        overlay.leave(42)
    with pytest.raises(OverlayError):
        overlay.crash(42)


def test_duplicate_join_rejected():
    _, overlay = build(n=5)
    with pytest.raises(OverlayError):
        overlay.join(overlay.node_ids()[0])


def test_neighbors_cycle():
    _, overlay = build(n=10, seed=5)
    node = overlay.node_ids()[0]
    successor = overlay.neighbor_of(node, NeighborSide.SUCCESSOR)
    assert overlay.neighbor_of(successor, NeighborSide.PREDECESSOR) == node


# -- routing ----------------------------------------------------------------------

def send(overlay, src, key):
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=key,
        request_id=next_request_id(), origin=src,
    )
    overlay.send(src, key, message)


def test_unicast_reaches_owner():
    sim, overlay = build(n=250, seed=6)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.payload)))
    rng = random.Random(7)
    for _ in range(150):
        send(overlay, rng.choice(overlay.node_ids()), rng.randrange(KS.size))
    sim.run()
    assert len(delivered) == 150
    for node_id, key in delivered:
        assert overlay.owner_of(key) == node_id


def test_hops_scale_like_sqrt_n():
    """CAN's signature: O(d * n^(1/d)) hops — sqrt(n) in 2-d, clearly
    worse than Chord's log n at this size.  Measured with the fast
    path off: express links and zone jumps exist precisely to beat
    this bound, so the baseline behavior needs its own construction."""
    sim, overlay = build(n=400, seed=8, express_links=False, zone_jumps=False)
    hops = []
    overlay.set_deliver(lambda nid, m: hops.append(m.hops))
    rng = random.Random(9)
    for _ in range(200):
        send(overlay, rng.choice(overlay.node_ids()), rng.randrange(KS.size))
    sim.run()
    mean = statistics.mean(hops)
    assert 3 < mean < 25  # ~0.5 * sqrt(400) = 10, generous band
    assert max(hops) < 128 + 64  # bounded by the torus Manhattan diameter


def test_fast_path_shortens_walks():
    """Express links + zone jumps must cut the mean path length well
    below the unit-step baseline on the same membership."""
    means = {}
    for label, flags in (
        ("slow", dict(express_links=False, zone_jumps=False)),
        ("fast", dict(express_links=True, zone_jumps=True)),
    ):
        sim, overlay = build(n=400, seed=8, **flags)
        hops = []
        overlay.set_deliver(lambda nid, m: hops.append(m.hops))
        rng = random.Random(9)
        for _ in range(200):
            send(overlay, rng.choice(overlay.node_ids()), rng.randrange(KS.size))
        sim.run()
        means[label] = statistics.mean(hops)
    assert means["fast"] < 0.6 * means["slow"]


def test_mcast_covers_all_owners():
    sim, overlay = build(n=120, seed=10)
    got = []
    overlay.set_deliver(lambda nid, m: got.append(nid))
    src = overlay.node_ids()[0]
    keys = [k % KS.size for k in range(3000, 4500)]
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION, payload=None,
        request_id=next_request_id(), origin=src,
    )
    overlay.mcast(src, keys, message)
    sim.run()
    # Fig. 4 over key order: the pointer ranges are cut at zone starts,
    # so every owner hears the cast exactly once, as on Chord.
    assert sorted(got) == sorted({overlay.owner_of(k) for k in keys})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, KS.size - 1), st.integers(0, 10**6))
def test_property_unicast_reaches_owner(key, seed):
    sim, overlay = build(n=60, seed=seed % 40 + 1)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    send(overlay, overlay.node_ids()[seed % 60], key)
    sim.run()
    assert delivered == [overlay.owner_of(key)]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_property_churn_preserves_partition_and_self_coverage(rounds, seed):
    rng = random.Random(seed)
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(rng.sample(range(KS.size), 20))
    for _ in range(rounds):
        if rng.random() < 0.5:
            candidate = rng.randrange(KS.size)
            if not overlay.is_alive(candidate):
                try:
                    overlay.join(candidate)
                except OverlayError:
                    pass  # unsplittable sliver zone
        elif len(overlay.node_ids()) > 2:
            overlay.leave(rng.choice(overlay.node_ids()))
    assert sum(overlay.zone_of(n)[1] for n in overlay.node_ids()) == KS.size
    for node_id in overlay.node_ids():
        assert overlay.covers(node_id, node_id)
