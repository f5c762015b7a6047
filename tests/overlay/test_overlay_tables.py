"""The membership tables each overlay holds once, against a reference.

A ring overlay holds every member's predecessor (``_pred``) and CAN
every member's zone and cell rectangles (``_geometry``); nodes read
them off the overlay, and the key set of each table is the membership
``is_alive`` answers from.  A seeded run of joins, leaves and crashes,
from 1, 2, 3 and 50 nodes, checks after every step that each table
equals its definition recomputed from scratch.
"""

import random

import pytest

from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(10)
OVERLAYS = (ChordOverlay, PastryOverlay, CanOverlay)
STEPS = 60


def check_tables(overlay):
    members = overlay.node_ids()
    assert set(members) == set(overlay._nodes)
    if isinstance(overlay, CanOverlay):
        table = overlay._geometry
        assert table == {
            node_id: (
                overlay.zone_of(node_id),
                [overlay.rect_of_cell(*cell) for cell in overlay.compute_cells(node_id)],
            )
            for node_id in members
        }
    else:
        table = overlay._pred
        ring = sorted(members)
        assert table == dict(zip(ring, ring[-1:] + ring[:-1]))
        if len(ring) == 1:
            assert overlay.predecessor_of(ring[0]) == ring[0]
    assert set(table) == set(members)
    assert all(overlay.is_alive(node_id) for node_id in members)


@pytest.mark.parametrize("size", (1, 2, 3, 50))
@pytest.mark.parametrize("overlay_cls", OVERLAYS, ids=lambda cls: cls.__name__)
def test_tables_equal_their_definitions_under_churn(overlay_cls, size):
    rng = random.Random(size)
    overlay = overlay_cls(Simulator(), KS)
    overlay.build_ring(rng.sample(range(KS.size), size))
    check_tables(overlay)
    for _ in range(STEPS):
        live = overlay.node_ids()
        if len(live) == 1 or rng.random() < 0.5:
            joiner = rng.randrange(KS.size)
            while overlay.is_alive(joiner):
                joiner = rng.randrange(KS.size)
            overlay.join(joiner)
        else:
            victim = rng.choice(live)
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            assert not overlay.is_alive(victim)
        check_tables(overlay)
