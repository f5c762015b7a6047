"""Finger-table maintenance under membership churn.

The overlay keeps no history of membership changes.  A :class:`ChordNode`
whose table predates the ring version re-resolves every finger start
against the ring on its next use and writes only the slots that moved,
so the merged-table journal names only the fingers that came or went.
These tests pin the contract: one stale read is one re-resolve (one
more ``table_rebuilds`` in ``maintenance_totals()``) however many
changes it absorbs, its table always
equals a fresh computation, a joiner stays cold until its first use,
and a change that moves none of a node's slots writes nothing.

A cold node's first sync derives everything in one pass — starts
inline, one bisect per slot, a run-length pass over the owners — and
the last section pins that against the written-out derivation on rings
from one node to a full key space.
"""

import random

import pytest

from repro.overlay.chord import ChordNode, ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(ids, **kwargs):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, **kwargs)
    overlay.build_ring(ids)
    return sim, overlay


def rebuilds(overlay):
    """The overlay's run-wide re-resolve count."""
    return overlay.maintenance_totals()["table_rebuilds"]


def synced_node(overlay, node_id):
    """The node, with its routing table brought current."""
    node = overlay.node(node_id)
    node.fingers()  # forces a sync
    return node


def assert_table_matches_rebuild(overlay, node):
    """The node's incremental state equals a from-scratch computation."""
    assert node.fingers() == overlay.compute_fingers(node.id)
    assert node._finger_slots == overlay.compute_finger_slots(node.id)
    # The merged table is fingers plus cache, minus self, with no
    # duplicates — order is by clockwise distance.
    expected_members = set(node.fingers()) | set(node.cached_ids())
    expected_members.discard(node.id)
    distance = overlay.keyspace.distance
    expected_order = sorted(expected_members, key=lambda n: distance(node.id, n))
    assert node.routing_table() == expected_order


# -- a stale node re-resolves once -----------------------------------------


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
    _, overlay = build([100, 1000, 2000, 3500, 4000, 5000, 6000, 7000])
    node = synced_node(overlay, 100)
    before = rebuilds(overlay)
    CHANGES[change](overlay)
    assert node.audit_state()[0] < overlay.ring_version  # stale until read
    node.fingers()
    node.fingers()
    assert rebuilds(overlay) == before + 1
    assert_table_matches_rebuild(overlay, node)


def test_join_that_moves_no_slot_writes_nothing():
    """The re-resolve splices only the slots that moved: a joiner that
    captures none of a node's finger starts costs that node no
    ``_apply_slot`` write, and its merged table stays live and equal."""
    _, overlay = build([100, 2000, 4000, 6000])
    node = overlay.node(100)
    before = node.routing_table()  # synced and materialized: journal live
    assert node._table_journal == []
    slots = list(node._finger_slots)
    # Node 100's starts sit at 100 + 2**i, up to 4196: a joiner takes
    # the starts in (its predecessor, itself], and (4000, 4100] holds none.
    joiner = 4100
    assert all(
        not 4000 < overlay.keyspace.finger_start(100, i) <= joiner
        for i in range(1, overlay.keyspace.bits + 1)
    )
    overlay.join(joiner)
    writes = []
    node._apply_slot = lambda index, owner: writes.append((index, owner))
    node.fingers()
    assert writes == []
    assert node._finger_slots == slots == overlay.compute_finger_slots(100)
    assert node._table_journal == []  # live, not voided
    assert node.routing_table() == before


def test_randomized_churn_keeps_patched_tables_exact():
    rng = random.Random(1234)
    ids = sorted(rng.sample(range(KS.size), 64))
    _, overlay = build(ids)
    watched = [synced_node(overlay, nid) for nid in ids[:8]]
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
            for node in watched:
                node.fingers()
    for node in watched:
        assert_table_matches_rebuild(overlay, node)


# -- a joiner starts cold --------------------------------------------------


def test_fresh_node_is_cold_then_re_resolves():
    """A joiner holds no table and costs nothing until its first use;
    that use is one rebuild, and a later change is one more."""
    _, overlay = build([100, 2000, 4000, 6000])
    overlay.join(3000)
    joiner = overlay.node(3000)
    assert joiner.audit_state() == (-1, [])
    assert rebuilds(overlay) == 0
    joiner.fingers()
    joiner.fingers()
    assert rebuilds(overlay) == 1
    assert_table_matches_rebuild(overlay, joiner)
    overlay.join(5000)
    assert joiner.audit_state()[0] < overlay.ring_version
    joiner.fingers()
    assert rebuilds(overlay) == 2
    assert_table_matches_rebuild(overlay, joiner)


def test_randomized_joiners_are_cold_until_first_use():
    """Every joiner holds no table until it is used, then exactly what
    a fresh derivation computes, whatever the ring looks like."""
    rng = random.Random(777)
    ids = sorted(rng.sample(range(KS.size), 32))
    _, overlay = build(ids)
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
            assert joiner.audit_state() == (-1, [])
            before = rebuilds(overlay)
            assert_table_matches_rebuild(overlay, joiner)
            assert rebuilds(overlay) == before + 1
        else:
            victim = rng.choice(sorted(live))
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            live.discard(victim)


# -- the one-pass cold build -----------------------------------------------


def assert_derived_state(overlay, node):
    """Slots and everything derived from them, against the definitions."""
    keyspace = overlay.keyspace
    slots = overlay.compute_finger_slots(node.id)
    assert node._finger_slots == slots
    assert node.fingers() == overlay.compute_fingers(node.id)
    # Every distinct slot owner but self, once, nearest first.
    owners = set(slots) - {node.id}
    by_distance = sorted(owners, key=lambda n: keyspace.distance(node.id, n))
    assert node._fingers == by_distance
    assert node._finger_dists == [
        keyspace.distance(node.id, n) for n in by_distance
    ]


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
    overlay = ChordOverlay(Simulator(), KeySpace(bits))
    overlay.build_ring(ids)
    for node_id in ids:
        node = overlay.node(node_id)
        assert node.audit_state() == (-1, [])  # cold: no slots yet
        before = rebuilds(overlay)
        node._sync()
        assert rebuilds(overlay) == before + 1
        assert_derived_state(overlay, node)


@pytest.mark.parametrize("ring", ["three-nodes-both-ends", "fifty-nodes"])
def test_cold_nodes_stay_exact_under_churn(ring):
    bits, ids = COLD_RINGS[ring]
    overlay = ChordOverlay(Simulator(), KeySpace(bits))
    overlay.build_ring(ids)
    watched = [overlay.node(node_id) for node_id in ids[:3]]
    for node in watched:
        node._sync()
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
            before = rebuilds(overlay)
            node._sync()
            assert rebuilds(overlay) == before + 1
            assert_derived_state(overlay, node)


def test_apply_slot_crosses_zero_exactly_like_a_fresh_derivation():
    """Seeded single-slot writes, each checked against a from-scratch
    ``_refresh_fingers`` of the same slots and against the journal.

    Every write keeps the slots what a ring can produce (owners in
    clockwise order, self last), and lands on a neighbour's owner — one
    that already holds another slot — or on a fresh node.  A finger is
    gained or lost only when the last slot leaves an owner or the first
    lands on one, and the journal names exactly the ids that crossed.
    """
    bits, ids = COLD_RINGS["fifty-nodes"]
    keyspace = KeySpace(bits)
    size = keyspace.size
    overlay = ChordOverlay(Simulator(), keyspace, cache_capacity=0)
    overlay.build_ring(ids)
    node = overlay.node(ids[0])
    node.routing_table()  # syncs and materializes: the journal is live
    me = node.id

    def reach(owner):  # self owns the starts no other node follows
        return (owner - me) % size or size

    rng = random.Random(28)
    onto_held = gained = lost = 0
    for _ in range(400):
        slots = node._finger_slots
        index = rng.randrange(bits)
        low = reach(slots[index - 1]) if index else 1
        high = reach(slots[index + 1]) if index + 1 < bits else size
        distance = rng.choice((low, high, rng.randint(low, high)))
        new_owner = (me + distance) % size
        old = slots[index]
        if new_owner == old:
            continue
        before = set(node._fingers)
        onto_held += new_owner in slots and new_owner != me
        node._apply_slot(index, new_owner)
        fresh = ChordNode(me, overlay, cache_capacity=0)
        fresh._finger_slots = list(slots)
        fresh._refresh_fingers()
        assert node._fingers == fresh._fingers
        assert node._finger_dists == fresh._finger_dists
        crossed = before ^ set(node._fingers)
        assert node._table_journal == [n for n in (old, new_owner) if n in crossed]
        del node._table_journal[:]
        lost += old in crossed
        gained += new_owner in crossed
    assert onto_held and gained and lost
