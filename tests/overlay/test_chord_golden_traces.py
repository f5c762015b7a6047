"""Golden-trace pins for Chord routing and for the sequential walk.

The fixtures in ``golden_routing.json`` pin exact hop sequences — same
deliveries, same per-copy hop counts, same paths (the node ids: every
other entry of a Chord or CAN ``path``, which carries each hop's
predecessor or zone stamp beside its id; every entry of a Pastry one) —
so that a mechanical speedup of ``ChordNode._next_hop`` or
``continue_mcast`` can be shown to change nothing.  The sequential walk
is written once for every overlay, so it is pinned on all three.
Regenerate the fixture only when routing behavior is changed
deliberately: it was last re-recorded when pointers became owned arcs
(a key goes straight to the finger or cached node certified to own it),
a decision pinned against a model in ``test_chord_table_property.py``
and ``test_chord_owned_arcs.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from tests.overlay.test_can_location_cache import build

KS = KeySpace(13)
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_routing.json").read_text()
)


def msg(src):
    return OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )


def mcast_trace(n, ring_seed, src_index, keys):
    sim, overlay = build(n, ring_seed, cache=0, overlay_cls=ChordOverlay)
    src = overlay.node_ids()[src_index]
    deliveries = []
    overlay.set_deliver(
        lambda nid, m: deliveries.append(
            [nid, m.hops, sorted(m.target_keys), list(m.path[::2])]
        )
    )
    overlay.mcast(src, keys, msg(src))
    sim.run()
    return sorted(deliveries)


def unicast_trace(n, ring_seed, cache, send_seed, count):
    sim, overlay = build(n, ring_seed, cache=cache, overlay_cls=ChordOverlay)
    routes = []
    overlay.set_deliver(lambda nid, m: routes.append([nid, m.hops, list(m.path[::2])]))
    rng = random.Random(send_seed)
    nodes = overlay.node_ids()
    for _ in range(count):
        src = rng.choice(nodes)
        key = rng.randrange(KS.size)
        overlay.send(src, key, msg(src))
        sim.run()
    return routes


def sequential_trace(
    n, ring_seed, src_index, keys, overlay_cls=ChordOverlay, cache=0
):
    sim, overlay = build(n, ring_seed, cache=cache, overlay_cls=overlay_cls)
    src = overlay.node_ids()[src_index]
    stride = 1 if overlay_cls is PastryOverlay else 2  # ids only, or pairs
    deliveries = []
    overlay.set_deliver(
        lambda nid, m: deliveries.append([nid, m.hops, list(m.path[::stride])])
    )
    overlay.sequential_cast(src, keys, msg(src))
    sim.run()
    return deliveries


def test_mcast_hop_sequences_match_golden_n64():
    assert (
        mcast_trace(64, 7, 0, list(range(1000, 3000, 37)))
        == GOLDEN["mcast_n64"]
    )


def test_mcast_hop_sequences_match_golden_n200():
    keys = [(1183 + 13 * i) % KS.size for i in range(150)]
    assert mcast_trace(200, 11, 37, keys) == GOLDEN["mcast_n200"]


def test_unicast_paths_with_location_cache_match_golden():
    assert unicast_trace(100, 5, 16, 3, 40) == GOLDEN["unicast_n100_cached"]


def test_sequential_walk_matches_golden():
    assert (
        sequential_trace(64, 7, 3, list(range(4000, 5000, 53)))
        == GOLDEN["sequential_n64"]
    )


# Round the whole ring, past key 0: the walk picks nine times.
SPREAD_KEYS = [(4000 + 997 * i) % KS.size for i in range(9)]


def test_pastry_sequential_walk_matches_golden():
    assert (
        sequential_trace(64, 7, 3, SPREAD_KEYS, PastryOverlay)
        == GOLDEN["sequential_pastry_n64"]
    )


def test_can_sequential_walk_matches_golden():
    assert (
        sequential_trace(64, 7, 3, SPREAD_KEYS, CanOverlay, cache=128)
        == GOLDEN["sequential_can_n64"]
    )
