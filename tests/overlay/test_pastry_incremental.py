"""Pastry routing-state maintenance under churn.

The overlay keeps no history of membership changes: a stale
:class:`PastryNode` recomputes its leaf set and prefix rows from the
ring on its next use, and a joiner holds no state until its first use.
These tests pin that one stale read is one recomputation, however many
changes it absorbs, and that the state always equals a wholesale
computation.
"""

import random

from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(13)


def build(ids, **kwargs):
    sim = Simulator()
    overlay = PastryOverlay(sim, KS, **kwargs)
    overlay.build_ring(ids)
    return sim, overlay


def rebuilds(overlay):
    """The overlay's run-wide recomputation count."""
    return overlay.maintenance_totals()["table_rebuilds"]


def assert_state_matches_rebuild(overlay, node):
    assert node.routing_table() == overlay.compute_routing_table(node.id)
    assert node.leaf_set() == overlay.compute_leaf_set(node.id)


def test_one_stale_read_recomputes_once():
    _, overlay = build([0x0100, 0x0900, 0x1100, 0x1900])
    node = overlay.node(0x0100)
    node.routing_table()
    before = rebuilds(overlay)
    overlay.join(0x0500)
    overlay.join(0x1500)
    overlay.leave(0x0900)
    assert node.audit_state()[0] < overlay.ring_version  # stale until read
    assert_state_matches_rebuild(overlay, node)
    assert rebuilds(overlay) == before + 1


def test_departure_recomputes_held_rows():
    _, overlay = build([0x0100, 0x0300, 0x0900, 0x1100, 0x1900])
    node = overlay.node(0x0100)
    node.routing_table()
    before = rebuilds(overlay)
    overlay.leave(0x1100)
    assert_state_matches_rebuild(overlay, node)
    assert rebuilds(overlay) == before + 1
    overlay.crash(0x0300)
    assert_state_matches_rebuild(overlay, node)
    assert rebuilds(overlay) == before + 2


def test_joiner_is_cold_until_first_use():
    rng = random.Random(7)
    ids = rng.sample(range(KS.size), 40)
    _, overlay = build(ids)
    for _ in range(30):
        candidate = rng.randrange(KS.size)
        if overlay.is_alive(candidate):
            continue
        overlay.join(candidate)
        joiner = overlay.node(candidate)
        assert joiner.audit_state()[0] == -1
        before = rebuilds(overlay)
        assert_state_matches_rebuild(overlay, joiner)
        assert rebuilds(overlay) == before + 1


def test_randomized_churn_keeps_patched_state_exact():
    rng = random.Random(4321)
    ids = sorted(rng.sample(range(KS.size), 64))
    _, overlay = build(ids)
    watched = [overlay.node(nid) for nid in ids[:8]]
    for node in watched:
        node.routing_table()
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
                assert_state_matches_rebuild(overlay, node)
    for node in watched:
        assert_state_matches_rebuild(overlay, node)
