"""The membership tables each overlay holds once, against a reference.

A ring overlay holds every member's predecessor (``_pred``); CAN holds
every member's zone and cell rectangles (``_geometry``) and the owner
of every key (``_key_owner``).  Nodes read them off the overlay, and
the key set of ``_pred`` and ``_geometry`` is the membership
``is_alive`` answers from.  A seeded run of joins, leaves and crashes,
from 1, 2, 3 and 50 nodes, checks after every step that each table
equals its definition recomputed from scratch: the sorted ring, or for
CAN a tessellation replayed here as plain sorted zone starts.
"""

import bisect
import random

import pytest

from repro.overlay.can import CanOverlay, zone_rectangle
from repro.overlay.can.morton import decompose
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(10)
OVERLAYS = (ChordOverlay, PastryOverlay, CanOverlay)
STEPS = 60


class ZoneReference:
    """CAN's tessellation, replayed the plain way: zone start -> owner
    (replayed for every overlay, read only for CAN).

    A join splits the zone holding the joiner's id between the owner's
    id and the joiner's (the joiner takes the half holding its id); a
    departure drops the zone's start, so the zone before it extends
    over it.  The last zone wraps over the keys below the first start.
    """

    def __init__(self, first):
        self.owner_at = {first: first}

    def zones(self):
        """Owner -> ``(start, length)``."""
        starts = sorted(self.owner_at)
        ends = starts[1:] + starts[:1]
        return {
            self.owner_at[start]: (start, (end - start) % KS.size or KS.size)
            for start, end in zip(starts, ends)
        }

    def owner_of(self, key):
        starts = sorted(self.owner_at)
        return self.owner_at[starts[bisect.bisect_right(starts, key) - 1]]

    def join(self, node_id):
        starts = sorted(self.owner_at)
        start = starts[bisect.bisect_right(starts, node_id) - 1]
        owner = self.owner_at[start]
        owner_offset = (owner - start) % KS.size
        joiner_offset = (node_id - start) % KS.size
        cut = (start + (owner_offset + joiner_offset) // 2 + 1) % KS.size
        if joiner_offset > owner_offset:
            self.owner_at[cut] = node_id
        else:
            self.owner_at[cut] = owner
            self.owner_at[start] = node_id

    def remove(self, node_id):
        (start,) = [s for s, owner in self.owner_at.items() if owner == node_id]
        del self.owner_at[start]


def rects_of(start, length):
    head = min(length, KS.size - start)
    cells = decompose(start, head, KS.bits)
    if head < length:
        cells += decompose(0, length - head, KS.bits)
    return [zone_rectangle(s, z, KS.bits) for s, z in cells]


def check_tables(overlay, reference):
    members = overlay.node_ids()
    assert set(members) == set(overlay._nodes)
    if isinstance(overlay, CanOverlay):
        zones = reference.zones()
        table = overlay._geometry
        assert table == {
            owner: (zone, rects_of(*zone)) for owner, zone in zones.items()
        }
        assert overlay._key_owner == [
            reference.owner_of(key) for key in range(KS.size)
        ]
        assert members == sorted(zones, key=zones.get)
    else:
        table = overlay._pred
        ring = sorted(members)
        assert table == dict(zip(ring, ring[-1:] + ring[:-1]))
    for node_id in members:
        assert overlay.successor_of(overlay.predecessor_of(node_id)) == node_id
    if len(members) == 1:
        (sole,) = members
        assert overlay.predecessor_of(sole) == overlay.successor_of(sole) == sole
    assert set(table) == set(members)
    assert all(overlay.is_alive(node_id) for node_id in members)


@pytest.mark.parametrize("size", (1, 2, 3, 50))
@pytest.mark.parametrize("overlay_cls", OVERLAYS, ids=lambda cls: cls.__name__)
def test_tables_equal_their_definitions_under_churn(overlay_cls, size):
    rng = random.Random(size)
    overlay = overlay_cls(Simulator(), KS)
    ids = rng.sample(range(KS.size), size)
    overlay.build_ring(ids)
    reference = ZoneReference(ids[0])
    for node_id in ids[1:]:
        reference.join(node_id)
    check_tables(overlay, reference)
    for _ in range(STEPS):
        live = overlay.node_ids()
        if len(live) == 1 or rng.random() < 0.5:
            joiner = rng.randrange(KS.size)
            while overlay.is_alive(joiner):
                joiner = rng.randrange(KS.size)
            overlay.join(joiner)
            reference.join(joiner)
        else:
            victim = rng.choice(live)
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)
            reference.remove(victim)
            assert not overlay.is_alive(victim)
        check_tables(overlay, reference)
