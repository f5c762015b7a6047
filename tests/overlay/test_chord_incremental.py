"""Incremental finger-table maintenance under membership churn.

The ring overlay logs every join/leave/crash as a delta
(:meth:`RingOverlay.deltas_since`) and a stale :class:`ChordNode`
catches up by *patching* its raw finger slots against that log instead
of rebuilding from the full membership.  These tests pin the contract:
joins and departures are absorbed as patches (counted by
``table_patches``), a full rebuild (``table_rebuilds``) happens only
when the log no longer reaches back to the node's version or has more
entries than the node has finger slots, and a patched table is always
identical to what a fresh rebuild would produce.

A cold node's first sync derives everything in one pass — starts
inline, one bisect per slot, a run-length pass over the owners — and
builds the sorted starts only when a delta is first replayed; the last
section pins that against the written-out derivation on rings from one
node to a full key space.
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


# -- joins and departures patch, not rebuild -------------------------------


def test_join_is_absorbed_as_patch():
    _, overlay = build([100, 2000, 4000, 6000])
    node = synced_node(overlay, 100)
    rebuilds, patches = node.table_rebuilds, node.table_patches
    overlay.join(3000)
    node.fingers()
    assert node.table_rebuilds == rebuilds  # no rebuild
    assert node.table_patches == patches + 1
    assert_table_matches_rebuild(overlay, node)


def test_leave_is_absorbed_as_patch():
    _, overlay = build([100, 2000, 4000, 6000])
    node = synced_node(overlay, 100)
    rebuilds, patches = node.table_rebuilds, node.table_patches
    overlay.leave(4000)
    node.fingers()
    assert node.table_rebuilds == rebuilds
    assert node.table_patches == patches + 1
    assert_table_matches_rebuild(overlay, node)


def test_crash_is_absorbed_as_patch():
    _, overlay = build([100, 2000, 4000, 6000])
    node = synced_node(overlay, 100)
    rebuilds = node.table_rebuilds
    overlay.crash(2000)
    node.fingers()
    assert node.table_rebuilds == rebuilds
    assert_table_matches_rebuild(overlay, node)


def test_batched_deltas_replay_in_one_patch():
    # Eight spread-out nodes give node 100 enough distinct fingers
    # (table rows) that a four-delta gap stays under the patch limit.
    _, overlay = build([100, 1000, 2000, 3000, 4000, 5000, 6000, 7000])
    node = synced_node(overlay, 100)
    patches = node.table_patches
    # Several membership changes between two touches of this node.
    # (Joiners are picked so neither has node 100 as its successor —
    # join-time seeding force-syncs the successor, which would split
    # the catch-up into two patches.)
    overlay.join(500)
    overlay.join(6500)
    overlay.leave(4000)
    overlay.crash(2000)
    node.fingers()
    assert node.table_patches == patches + 1  # one catch-up, four deltas
    assert_table_matches_rebuild(overlay, node)


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
        assert node.table_patches > 0


# -- rebuild fallbacks -----------------------------------------------------


def test_fresh_node_is_seeded_then_patches():
    _, overlay = build([100, 2000, 4000, 6000])
    overlay.join(3000)
    joiner = overlay.node(3000)
    # Join-time seeding replaces the old cold-start rebuild: the node
    # is already at the current ring version before its first use.
    assert joiner.table_seeds == 1
    assert joiner.table_rebuilds == 0
    joiner.fingers()
    assert (joiner.table_rebuilds, joiner.table_patches) == (0, 0)
    assert_table_matches_rebuild(overlay, joiner)
    overlay.join(5000)
    joiner.fingers()
    assert (joiner.table_rebuilds, joiner.table_patches) == (0, 1)


def test_randomized_joins_are_seeded_exactly():
    """Property: every joiner's seeded table equals a fresh derivation.

    Join-time seeding derives the joiner's slots from its successor's
    table (certifying each slot or falling back to a ring bisect), so
    whatever the ring looks like, a just-joined node must hold exactly
    the state a cold rebuild would compute — without ever rebuilding.
    """
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
            assert joiner.table_seeds == 1
            assert joiner.table_rebuilds == 0
            assert_table_matches_rebuild(overlay, joiner)
        else:
            victim = rng.choice(sorted(live))
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            live.discard(victim)


def test_log_longer_than_slots_falls_back_to_rebuild():
    # Replaying a delta costs two bisects while a rebuild re-resolves
    # each slot at one, so a burst of more deltas than finger slots
    # must trigger the rebuild path.
    _, overlay = build([100, 2000, 4000, 6000], cache_capacity=0)
    node = synced_node(overlay, 100)
    slot_count = len(node._finger_slots)
    rebuilds = node.table_rebuilds
    joiner_rng = random.Random(9)
    added = 0
    while added <= slot_count:
        candidate = joiner_rng.randrange(KS.size)
        # Keep joiners out of (6000, 100]: a joiner whose successor is
        # node 100 would force-sync it at join time (seeding), resetting
        # the delta backlog this test is accumulating.
        if not 200 < candidate < 6000:
            continue
        if not overlay.is_alive(candidate):
            overlay.join(candidate)
            added += 1
    node.fingers()
    assert node.table_rebuilds == rebuilds + 1
    assert_table_matches_rebuild(overlay, node)


def test_truncated_log_falls_back_to_rebuild():
    _, overlay = build([100, 2000, 4000, 6000])
    overlay._DELTA_LOG_CAP = 4  # shrink the window for the test
    node = synced_node(overlay, 100)
    version_before = overlay.ring_version
    rebuilds = node.table_rebuilds
    for candidate in (300, 700, 1500, 2500, 3500, 5000):
        overlay.join(candidate)
    # The log was capped: this node's version fell off the back.
    assert overlay.deltas_since(version_before) is None
    node.fingers()
    assert node.table_rebuilds == rebuilds + 1
    assert_table_matches_rebuild(overlay, node)


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
        node._sync()
        assert node.table_rebuilds == 1
        assert_derived_state(overlay, node)


@pytest.mark.parametrize("ring", ["three-nodes-both-ends", "fifty-nodes"])
def test_cold_built_nodes_patch_exactly_with_lazy_sorted_starts(ring):
    bits, ids = COLD_RINGS[ring]
    overlay = ChordOverlay(Simulator(), KeySpace(bits))
    overlay.build_ring(ids)
    watched = [overlay.node(node_id) for node_id in ids[:3]]
    for node in watched:
        node._sync()
        assert node._sorted_starts is None  # nothing replayed yet
    rng = random.Random(ring)
    live = set(ids)
    protected = {node.id for node in watched}
    for step in range(24):
        # Fewer deltas between syncs than finger slots: always a patch.
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
            node._sync()
            assert node.table_rebuilds == 1
            assert_derived_state(overlay, node)
    for node in watched:
        assert node.table_patches > 0
        starts = [
            overlay.keyspace.finger_start(node.id, i) for i in range(1, bits + 1)
        ]
        assert node._sorted_starts == sorted(starts)
        assert [starts[i] for i in node._start_perm] == node._sorted_starts


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


# -- the delta log itself --------------------------------------------------


def test_deltas_since_records_joins_and_departures():
    _, overlay = build([100, 2000, 4000, 6000])
    version = overlay.ring_version
    overlay.join(3000)
    overlay.leave(6000)
    overlay.crash(2000)
    deltas = overlay.deltas_since(version)
    assert deltas == [
        ("join", 3000, 2000),  # predecessor after the join
        ("depart", 6000, 100),  # heir: old successor (wraps to 100)
        ("depart", 2000, 3000),
    ]
    assert overlay.deltas_since(overlay.ring_version) == []


def test_build_ring_resets_the_log():
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring([100, 2000])
    assert overlay.deltas_since(overlay.ring_version) == []
    # Versions predating the bulk build are not replayable.
    assert overlay.deltas_since(overlay.ring_version - 1) is None
