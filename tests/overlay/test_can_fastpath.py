"""The CAN routing fast path: overlay-held geometry, zone jumps, express links.

Three properties pin the fast path to the slow one:

- **same owners** — with every layer on, a routed key is delivered to
  exactly the node a brute-force zone scan names;
- **monotone potential** — along any delivered path, each node's
  closest-point torus distance to the target strictly decreases, which
  is the termination argument for all three layers at once;
- **exact express links** — the links a node reads off the key→owner
  table always equal a fresh recomputation against the current zone
  table;
- **exactly-once m-cast** — under the same churn, every m-cast reaches
  quiescence having delivered once at each brute-force owner of its
  keys and nowhere else, whatever the flags say.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay, zone_rectangle
from repro.overlay.can.morton import (
    axis_sizes,
    morton_decode,
    rect_closest_point,
    torus_delta,
)
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)

FLAG_COMBOS = (
    dict(express_links=True, zone_jumps=True),
    dict(express_links=True, zone_jumps=False),
    dict(express_links=False, zone_jumps=True),
)


def build(n=60, seed=1, **flags):
    sim = Simulator()
    overlay = CanOverlay(sim, KS, **flags)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def send(overlay, src, key):
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=key,
        request_id=next_request_id(), origin=src,
    )
    overlay.send(src, key, message)


def mcast(overlay, src, keys):
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION, payload=None,
        request_id=next_request_id(), origin=src,
    )
    overlay.mcast(src, keys, message)


def brute_owner(overlay, key):
    """Oracle: linear scan of every live node's zone interval."""
    size = overlay.keyspace.size
    for node_id in overlay.node_ids():
        start, length = overlay.zone_of(node_id)
        if (key - start) % size < length:
            return node_id
    raise AssertionError(f"no zone covers key {key}")


def zone_distance(overlay, node_id, key):
    """Oracle: the node's closest-point torus distance to the target."""
    bits = overlay.keyspace.bits
    x_size, y_size = axis_sizes(bits)
    tx, ty = morton_decode(key, bits)
    best = None
    for start, csize in overlay.compute_cells(node_id):
        rect = zone_rectangle(start, csize, bits)
        px, py = rect_closest_point(rect, tx, ty, x_size, y_size)
        distance = abs(torus_delta(px, tx, x_size)) + abs(
            torus_delta(py, ty, y_size)
        )
        if best is None or distance < best:
            best = distance
    return best


def churn(overlay, rng, rounds):
    from repro.errors import OverlayError

    for _ in range(rounds):
        roll = rng.random()
        if roll < 0.5 or len(overlay.node_ids()) <= 4:
            candidate = rng.randrange(overlay.keyspace.size)
            if not overlay.is_alive(candidate):
                try:
                    overlay.join(candidate)
                except OverlayError:
                    pass  # unsplittable sliver zone
        elif roll < 0.8:
            overlay.leave(rng.choice(overlay.node_ids()))
        else:
            overlay.crash(rng.choice(overlay.node_ids()))


# -- geometry tables ----------------------------------------------------------

def test_rect_of_cell_matches_zone_rectangle():
    _, overlay = build(n=5)
    for free in range(KS.bits + 1):
        size = 1 << free
        for start in range(0, KS.size, max(size, KS.size // 64)):
            aligned = start - start % size
            assert overlay.rect_of_cell(aligned, size) == zone_rectangle(
                aligned, size, KS.bits
            )


# -- the key→owner table -----------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_key_owner_table_equals_brute_owner_under_churn(seed):
    """After every join, leave and crash — with the last zone wrapping
    the origin, and down to a single node — the flat table routing
    reads names the brute-force owner of every key."""
    keyspace = KeySpace(8)
    rng = random.Random(seed)
    overlay = CanOverlay(Simulator(), keyspace)
    overlay.build_ring(rng.sample(range(keyspace.size), 12))

    def check():
        assert overlay.key_owner_table() == [
            brute_owner(overlay, key) for key in range(keyspace.size)
        ]

    check()
    wrapped = False
    for _ in range(60):
        churn(overlay, rng, 1)
        wrapped = wrapped or overlay.zone_table()[0][0] != 0
        check()
    assert wrapped
    while len(overlay) > 1:
        victim = rng.choice(overlay.node_ids())
        if rng.random() < 0.5:
            overlay.leave(victim)
        else:
            overlay.crash(victim)
        check()
    assert set(overlay.key_owner_table()) == set(overlay.node_ids())


def test_zone_table_of_a_seeded_400_join_build_is_pinned():
    """join() finds the split zone's slot from the cut position, not by
    scanning the starts; the tessellation of 400 seeded joins is the
    one the linear scan built (digest taken at PR 14)."""
    overlay = CanOverlay(Simulator(), KS)
    overlay.build_ring(random.Random(400).sample(range(KS.size), 401))
    table = overlay.zone_table()
    assert len(table) == 401
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        "c704214797e950b6cf83a63091884be47f2df5bef1b041892b2609d45b0e46a4"
    )
    for node_id in overlay.node_ids():
        assert overlay.owner_of(node_id) == node_id


# -- fast-path delivery vs oracle --------------------------------------------

@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=("both", "express", "jumps"))
def test_fast_path_same_owner_and_monotone_distance_seeded(flags):
    """Across random join/leave/crash sequences, the fast path delivers
    every key to the brute-force owner, and every delivered path's
    per-node distance to the target strictly decreases."""
    rng = random.Random(20260807)
    for round_index in range(6):
        sim, overlay = build(n=50, seed=round_index + 1, **flags)
        churn(overlay, rng, 40)
        delivered = []
        overlay.set_deliver(
            lambda nid, m: delivered.append((nid, m.payload, m.path))
        )
        keys = [rng.randrange(KS.size) for _ in range(40)]
        for key in keys:
            send(overlay, rng.choice(overlay.node_ids()), key)
        sim.run()
        assert len(delivered) == len(keys)
        for node_id, key, path in delivered:
            assert node_id == brute_owner(overlay, key)
            walk = list(path[::2]) + [node_id]  # ids; their zones ride between
            distances = [zone_distance(overlay, n, key) for n in walk]
            for previous, current in zip(distances, distances[1:]):
                assert current < previous  # strictly decreasing => terminates
            assert distances[-1] == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, KS.size - 1), st.integers(0, 10**6))
def test_property_fast_path_unicast_reaches_owner(key, seed):
    sim, overlay = build(n=60, seed=seed % 40 + 1)
    churn(overlay, random.Random(seed), 15)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    send(overlay, overlay.node_ids()[seed % len(overlay.node_ids())], key)
    sim.run()
    assert delivered == [brute_owner(overlay, key)]


@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=("both", "express", "jumps"))
def test_mcast_delivers_once_at_each_owner_under_churn(flags):
    """Contiguous and scattered key sets of 1 to 150 keys, cast from
    random nodes between join/leave/crash bursts: each cast drains its
    events and delivered exactly once at every brute-force owner."""
    rng = random.Random(20261016)
    for round_index in range(4):
        sim, overlay = build(n=50, seed=round_index + 1, **flags)
        delivered = []
        overlay.set_deliver(lambda nid, m: delivered.append(nid))
        for _ in range(4):
            churn(overlay, rng, 10)
            for _ in range(8):
                count = rng.randint(1, 150)
                if rng.random() < 0.5:
                    first = rng.randrange(KS.size)
                    keys = {(first + i) % KS.size for i in range(count)}
                else:
                    keys = {rng.randrange(KS.size) for _ in range(count)}
                del delivered[:]
                mcast(overlay, rng.choice(overlay.node_ids()), keys)
                sim.run(max_events=10_000)
                assert sim.pending == 0  # quiescent: no branch still walking
                owners = {brute_owner(overlay, key) for key in keys}
                assert sorted(delivered) == sorted(owners)


def test_mcast_zone_straddling_a_link_target_gets_one_branch():
    """B's zone starts before A + 2^10, the key its express link 10
    names, and ends after it.  Cut at A + 2^9 and A + 2^10, B's keys
    below A + 2^10 would ride link 9's branch (to C) and the rest come
    straight from A: two branches at B.  Cut at zone starts, one."""
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    a, c, b, d, e = 0x10, 0x30, 0x500, 0x900, 0x1400
    overlay.build_ring([a, c, b, d, e])
    set_zones(overlay, [0, 0x20, 0x400, 0x800, 0x1000], [a, c, b, d, e])
    assert overlay.compute_express_links(a)[9:] == [c, b, d, e]
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    mcast(overlay, a, range(0x400, 0x420))  # straddles a + 2**10 = 0x410
    sim.run()
    assert delivered == [(b, 1)]


# -- express links -----------------------------------------------------------

def test_express_links_read_off_the_key_owner_table_stay_exact_under_churn():
    """A node stores no links: ``_next_hop`` and ``continue_mcast`` read
    link ``k`` as the key→owner table's owner of the key ``id + 2^k``.
    After any run of joins, leaves and crashes those owners are the
    links ``compute_express_links`` names off ``zone_table()``."""
    rng = random.Random(23)
    _, overlay = build(n=48, seed=9)
    key_owner = overlay._key_owner
    checked = 0
    for _ in range(250):
        churn(overlay, rng, 1)
        if rng.random() < 0.3:
            for node_id in rng.sample(overlay.node_ids(), 5):
                targets = [(node_id + (1 << k)) % KS.size for k in range(KS.bits)]
                assert [key_owner[key] for key in targets] == (
                    overlay.compute_express_links(node_id)
                )
                checked += 1
    assert checked > 0


# -- the defensive fallback (regression) --------------------------------------

def set_zones(overlay, starts, owners):
    """Overwrite the tessellation (first zone at key 0): the key→owner
    table and the geometry entries."""
    for start, end, owner in zip(starts, starts[1:] + [KS.size], owners):
        overlay._assign_keys(start, end - start, owner)
        overlay._place(owner, (start, end - start))


def test_fallback_steps_toward_key_not_successor():
    """A node with a corrupted geometry entry must still forward toward
    the key's zone, not blindly to its zone-ring successor — on a torus
    the successor can point the wrong way and the old fallback
    livelocked such walks.
    """
    sim = Simulator()
    overlay = CanOverlay(sim, KS, express_links=False, zone_jumps=False)
    overlay.build_ring([0x100, 0x900, 0x1400])
    set_zones(overlay, [0, 0x800, 0x1000], [0x100, 0x900, 0x1400])
    node_a = overlay.node(0x100)
    # Corrupt A's geometry entry so its "closest point" probe lands
    # back inside its own true zone: pretend its zone is a single far
    # cell whose one-unit step stays within [0, 0x800).
    overlay._geometry[0x100] = ((0x400, 1), [overlay.rect_of_cell(0x400, 1)])
    key = 0x1600  # owned by C=0x1400; zone index 2
    hop = node_a._next_hop(key)
    # Cyclically, stepping backward (index 0 -> 2) is the short way
    # toward the key's zone; the old code returned B (index 1), the
    # zone-ring successor, which routes away from the target.
    assert hop == 0x1400


def test_fallback_direction_is_shorter_cyclic_way():
    """_fallback_toward picks whichever cyclic zone-index direction is
    nearer to the key's zone — both ways around."""
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring([0x100, 0x900, 0x1400, 0x1C00])
    set_zones(
        overlay, [0, 0x800, 0x1000, 0x1800], [0x100, 0x900, 0x1400, 0x1C00]
    )
    node_a = overlay.node(0x100)
    # Key in the next zone forward: step forward to B.
    assert node_a._fallback_toward(0x900) == 0x900
    # Key in the zone just behind (cyclically): step backward to D.
    assert node_a._fallback_toward(0x1900) == 0x1C00
