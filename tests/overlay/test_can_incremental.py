"""Incremental CAN zone maintenance under churn.

A CAN node's zone boundaries move only when a join splits its own zone
or a departure makes it the heir; every other membership change leaves
its cells untouched.  The decomposition is a function of the zone
alone, so a stale node re-reads its zone: unchanged -> keep the
decomposition (patch), moved -> recompute (rebuild).  These tests pin
that the kept decomposition is always identical to a wholesale
recomputation, and count each re-read in the overlay's
``maintenance_totals()``.
"""

import random

from repro.overlay.can import CanOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(12)


def build(ids):
    sim = Simulator()
    overlay = CanOverlay(sim, KS)
    overlay.build_ring(ids)
    return sim, overlay


def counts(overlay):
    """The overlay's run-wide ``(rebuilds, patches)``."""
    totals = overlay.maintenance_totals()
    return totals["table_rebuilds"], totals["table_patches"]


def recompute_cells(overlay, node_id):
    """Oracle: a fresh decomposition of the node's current zone."""
    from repro.overlay.can.morton import decompose

    bits = overlay.keyspace.bits
    size = overlay.keyspace.size
    start, length = overlay.zone_of(node_id)
    if start + length <= size:
        return decompose(start, length, bits)
    head = size - start
    return decompose(start, head, bits) + decompose(0, length - head, bits)


def test_unrelated_churn_patches_without_recomputing():
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    node = overlay.node(0x100)
    cells_before = list(node.cells())
    assert counts(overlay) == (1, 0)
    # A join splitting someone else's zone leaves our cells untouched.
    overlay.join(0xB00)
    assert node.cells() == cells_before
    assert counts(overlay) == (1, 1)
    # So does a departure absorbed by someone else.
    victim = 0xB00
    assert overlay.heir_of(victim) != node.id
    overlay.leave(victim)
    assert node.cells() == cells_before
    assert counts(overlay) == (1, 2)


def test_own_split_and_absorption_recompute():
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    node = overlay.node(0x900)
    node.cells()
    assert counts(overlay) == (1, 0)
    # A join splitting OUR zone must recompute.
    joiner = 0xA00
    assert overlay.owner_of(joiner) == node.id
    overlay.join(joiner)
    assert node.cells() == recompute_cells(overlay, node.id)
    assert counts(overlay) == (2, 0)
    # A departure WE absorb must recompute.
    assert overlay.heir_of(joiner) == node.id
    overlay.leave(joiner)
    assert node.cells() == recompute_cells(overlay, node.id)
    assert counts(overlay) == (3, 0)


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
        if rng.random() < 0.2:
            for node_id in rng.sample(sorted(live), 5):
                node = overlay.node(node_id)
                assert node.cells() == recompute_cells(overlay, node_id)
    assert counts(overlay)[1] > 0


def test_untouched_zone_keeps_cells_past_512_deltas():
    """More membership changes than a bounded delta log would hold,
    none touching the node's zone: it keeps its cells with one patch
    and no rebuild, because it re-reads its zone, not a log."""
    _, overlay = build([0x100, 0x500, 0x900, 0xD00])
    node = overlay.node(0x100)
    cells_before = list(node.cells())
    zone_before = overlay.zone_of(node.id)
    version_before = overlay.zone_version
    # Churn entirely inside another zone, well past 512 deltas.
    for round_ in range(300):
        joiner = 0xA00 + round_
        overlay.join(joiner)
        overlay.leave(joiner)
    assert overlay.zone_version - version_before == 600
    assert overlay.zone_of(node.id) == zone_before
    assert node.cells() == cells_before == recompute_cells(overlay, node.id)
    assert counts(overlay) == (1, 1)
