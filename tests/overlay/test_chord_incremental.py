"""Chord routing under membership churn, with no finger table to maintain.

A :class:`ChordNode` holds no membership-derived state: every hop reads
the one finger slot it needs off the overlay's sorted ring.  These
tests pin the contract that replaced incremental finger maintenance.
After any join, leave or crash — one at a time or in a batch, on rings
from one node to a full key space, for a node that has routed before
or a joiner that never has — ``compute_fingers`` and
``compute_finger_slots`` equal the written-out definitions, and the
node's next hop equals the closest-preceding rule over those fingers.
The node's own state is its location cache alone: membership changes
never write it or its view, and ``maintenance_totals()`` reads 0.

(The module's name and its test ids are historical: they pinned the
finger table's cold build and re-resolve while a node held one.)
"""

import random

import pytest

from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(ids, **kwargs):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, **kwargs)
    overlay.build_ring(ids)
    return sim, overlay


def assert_no_maintenance(overlay):
    assert overlay.maintenance_totals() == {
        "table_rebuilds": 0, "table_patches": 0, "table_seeds": 0,
    }


def assert_derived_state(overlay, node):
    """Slots and fingers against the definitions, and the node's hops
    against closest-preceding routing over those fingers alone."""
    keyspace = overlay.keyspace
    size = keyspace.size
    me = node.id
    ring = overlay.node_ids()
    # Slot i is the first live id at or after me + 2**i, wrapping.
    slots = [
        min(ring, key=lambda n: (n - (me + (1 << i))) % size)
        for i in range(keyspace.bits)
    ]
    assert overlay.compute_finger_slots(me) == slots
    # Every distinct slot owner but self, once, nearest first.
    owners = set(slots) - {me}
    by_distance = sorted(owners, key=lambda n: keyspace.distance(me, n))
    assert overlay.compute_fingers(me) == by_distance
    assert by_distance[:1] == ([] if len(ring) == 1 else [overlay.successor_of(me)])
    if node._cache.capacity:
        return  # cached pointers may stand in: test_chord_table_property
    for key in range(0, size, max(1, size // 64)):
        if overlay.covers(me, key):
            continue
        target = keyspace.distance(me, key)
        owner = overlay.owner_of(key)
        # The slot starting at the key's top bit certifies its owner;
        # otherwise the hop is the last finger at or before the key.
        start = (me + (1 << (target.bit_length() - 1))) % size
        if overlay.owner_of(start) != owner:
            owner = [f for f in by_distance if keyspace.distance(me, f) <= target][-1]
        assert node._next_hop(key) == owner


def assert_no_finger_state(node):
    """A node holds its id, overlay, ring size and cache."""
    assert set(vars(node)) == {"id", "_overlay", "_size", "_cache"}


# -- one change, then one read ----------------------------------------------


CHANGES = {
    "join": lambda overlay: overlay.join(3000),
    "leave": lambda overlay: overlay.leave(4000),
    "crash": lambda overlay: overlay.crash(2000),
    "batch": lambda overlay: (
        overlay.join(500),
        overlay.join(6500),
        overlay.leave(4000),
        overlay.crash(2000),
    ),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_one_stale_read_re_resolves_once(change):
    """The first read after a change is exact: nothing on the node
    predates the change, so nothing is re-resolved or counted."""
    _, overlay = build(
        [100, 1000, 2000, 3500, 4000, 5000, 6000, 7000], cache_capacity=0
    )
    node = overlay.node(100)
    assert_derived_state(overlay, node)
    CHANGES[change](overlay)
    assert_derived_state(overlay, node)
    assert_no_finger_state(node)
    assert_no_maintenance(overlay)


def test_join_that_moves_no_slot_writes_nothing():
    """A join writes nothing at a node: its cache view stays live and
    equal, whether the joiner captures one of its finger starts or
    none."""
    _, overlay = build([100, 2000, 4000, 6000], cache_capacity=8)
    node = overlay.node(100)
    node.learn([2000, 6000])
    # Slot 10 (start 1124) is 2000, short of 2100: no slot certifies
    # the key, so the hop reads the cache view and the journal is live.
    assert node._next_hop(2100) == 2000
    assert node._cache.journal == []
    view = list(node._cache.ids)
    # 4100 captures no start of node 100 (they sit at 100 + 2**i, up to
    # 4196, and (4000, 4100] holds none); 3000 captures 100 + 2048.
    for joiner in (4100, 3000):
        overlay.join(joiner)
        assert node._cache.journal == []  # live, not voided
        assert node._cache.ids == view
    assert overlay.compute_finger_slots(100)[11] == 3000


def test_randomized_churn_keeps_patched_tables_exact():
    rng = random.Random(1234)
    ids = sorted(rng.sample(range(KS.size), 64))
    _, overlay = build(ids, cache_capacity=0)
    watched = [overlay.node(nid) for nid in ids[:8]]
    live = set(ids)
    for _ in range(200):
        if rng.random() < 0.5 or len(live) < 16:
            candidate = rng.randrange(KS.size)
            if candidate in live:
                continue
            overlay.join(candidate)
            live.add(candidate)
        else:
            victim = rng.choice(sorted(live - {n.id for n in watched}))
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            live.discard(victim)
        if rng.random() < 0.3:
            assert_derived_state(overlay, rng.choice(watched))
    for node in watched:
        assert_derived_state(overlay, node)
    assert_no_maintenance(overlay)


# -- a joiner routes exactly from its first message -------------------------


def test_fresh_node_is_cold_then_re_resolves():
    """A joiner holds no finger state, before its first use or after
    it, and routes exactly at once and after a later join."""
    _, overlay = build([100, 2000, 4000, 6000], cache_capacity=0)
    overlay.join(3000)
    joiner = overlay.node(3000)
    assert_no_finger_state(joiner)
    assert_derived_state(overlay, joiner)
    assert_no_finger_state(joiner)
    overlay.join(5000)
    assert_derived_state(overlay, joiner)
    assert_no_maintenance(overlay)


def test_randomized_joiners_are_cold_until_first_use():
    """Every joiner holds no finger state and routes exactly what the
    definitions give, whatever the ring looks like."""
    rng = random.Random(777)
    ids = sorted(rng.sample(range(KS.size), 32))
    _, overlay = build(ids, cache_capacity=0)
    live = set(ids)
    for _ in range(150):
        action = rng.random()
        if action < 0.5 or len(live) < 8:
            candidate = rng.randrange(KS.size)
            if candidate in live:
                continue
            overlay.join(candidate)
            live.add(candidate)
            joiner = overlay.node(candidate)
            assert_no_finger_state(joiner)
            assert_derived_state(overlay, joiner)
        else:
            victim = rng.choice(sorted(live))
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            live.discard(victim)
    assert_no_maintenance(overlay)


# -- small and full rings -----------------------------------------------------


COLD_RINGS = {
    "one-node": (13, [4000]),
    "two-nodes-wrapping": (13, [100, 8000]),
    "three-nodes-both-ends": (13, [0, 4096, 8191]),
    "fifty-nodes": (13, random.Random(50).sample(range(8192), 50)),
    "full-6-bit-space": (6, list(range(64))),
    "full-1-bit-space": (1, [0, 1]),
}


@pytest.mark.parametrize("ring", sorted(COLD_RINGS))
def test_cold_build_matches_the_definitions_on_every_node(ring):
    bits, ids = COLD_RINGS[ring]
    overlay = ChordOverlay(Simulator(), KeySpace(bits), cache_capacity=0)
    overlay.build_ring(ids)
    for node_id in ids:
        assert_derived_state(overlay, overlay.node(node_id))
    assert_no_maintenance(overlay)


@pytest.mark.parametrize("ring", ["three-nodes-both-ends", "fifty-nodes"])
def test_cold_nodes_stay_exact_under_churn(ring):
    bits, ids = COLD_RINGS[ring]
    overlay = ChordOverlay(Simulator(), KeySpace(bits), cache_capacity=0)
    overlay.build_ring(ids)
    watched = [overlay.node(node_id) for node_id in ids[:3]]
    rng = random.Random(ring)
    live = set(ids)
    protected = {node.id for node in watched}
    for step in range(24):
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5 or len(live) <= 4:
                joiner = rng.randrange(1 << bits)
                if joiner not in live:
                    overlay.join(joiner)
                    live.add(joiner)
            else:
                victim = rng.choice(sorted(live - protected))
                (overlay.leave if rng.random() < 0.5 else overlay.crash)(victim)
                live.discard(victim)
        for node in watched:
            assert_derived_state(overlay, node)
    assert_no_maintenance(overlay)
