"""Incremental CAN zone geometry under churn.

The overlay holds every member's zone and the rectangles of its cells
in one table, ``_geometry``, and writes an entry only where a zone
moves: a join writes the split owner's and the joiner's, a departure
the heir's.  Every other membership change leaves an entry as it was,
the same object.  These tests pin that the kept entries always equal a
wholesale recomputation from the zone and the Morton helpers.
"""

import random

from repro.overlay.can import CanOverlay, zone_rectangle
from repro.overlay.can.morton import decompose
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(12)


def build(ids):
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(ids)
    return sim, overlay


def recompute_entry(overlay, node_id):
    """Oracle: the node's zone and the rectangles of a fresh
    decomposition of it (a zone wrapping the origin is two intervals)."""
    bits = KS.bits
    start, length = overlay.zone_of(node_id)
    if start + length <= KS.size:
        cells = decompose(start, length, bits)
    else:
        head = KS.size - start
        cells = decompose(start, head, bits) + decompose(0, length - head, bits)
    rects = [zone_rectangle(cell, size, bits) for cell, size in cells]
    return (start, length), rects


def test_unrelated_churn_patches_without_recomputing():
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    entry = overlay._geometry[0x100]
    # A join splitting someone else's zone leaves our entry untouched.
    overlay.join(0xB00)
    assert overlay._geometry[0x100] is entry
    # So does a departure absorbed by someone else.
    victim = 0xB00
    assert overlay.heir_of(victim) != 0x100
    overlay.leave(victim)
    assert overlay._geometry[0x100] is entry
    assert entry == recompute_entry(overlay, 0x100)


def test_own_split_and_absorption_recompute():
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    entry = overlay._geometry[0x900]
    # A join splitting OUR zone rewrites our entry and writes the joiner's.
    joiner = 0xA00
    assert overlay.owner_of(joiner) == 0x900
    overlay.join(joiner)
    assert overlay._geometry[0x900] != entry
    assert overlay._geometry[0x900] == recompute_entry(overlay, 0x900)
    assert overlay._geometry[joiner] == recompute_entry(overlay, joiner)
    # A departure WE absorb rewrites ours and drops the leaver's.
    assert overlay.heir_of(joiner) == 0x900
    overlay.leave(joiner)
    assert joiner not in overlay._geometry
    assert overlay._geometry[0x900] == entry == recompute_entry(overlay, 0x900)


def test_randomized_churn_keeps_cells_exact():
    rng = random.Random(97)
    ids = rng.sample(range(KS.size), 48)
    _, overlay = build(ids)
    live = set(overlay.node_ids())
    for _ in range(300):
        if rng.random() < 0.5 or len(live) < 12:
            candidate = rng.randrange(KS.size)
            if candidate in live:
                continue
            overlay.join(candidate)
            live.add(candidate)
        else:
            victim = rng.choice(sorted(live))
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            live.discard(victim)
        assert overlay._geometry == {
            node_id: recompute_entry(overlay, node_id) for node_id in live
        }
    assert overlay.maintenance_totals()["table_rebuilds"] == 0


def test_untouched_zone_keeps_cells_past_512_deltas():
    """More membership changes than a bounded delta log would hold,
    none touching the node's zone: its entry is never rewritten."""
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    entry = overlay._geometry[0x100]
    # Churn entirely inside another zone, well past 512 deltas.
    for round_ in range(300):
        joiner = 0xA00 + round_
        overlay.join(joiner)
        overlay.leave(joiner)
    assert overlay._geometry[0x100] is entry
    assert entry == recompute_entry(overlay, 0x100)
