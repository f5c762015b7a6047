"""The Chord leg of ``test_location_cache.py``: the touch-log fold
against the same reference LRU, through ``ChordNode``'s own readers.

``learn`` (and ``receive``) only append what they saw to the location
cache's log, as flat ``(id, predecessor)`` pairs — the predecessor is
the arc the node stamped on a message's path, None when it was named
without one (``learn``, and the sender of a one-hop message); the log is
folded when the cache is next read, or on its own once it passes
``FOLD_AT`` slots.  A cached read (``_next_hop``,
``cached_ids()``, the cache view, ``forget``) must see every
earlier touch, so each folds first — through
``LocationCache.fold``, which journals what entered and left, so the
distance-sorted cache view must equal the cache after any of them.  (The module and the
``test_learn_batch_*`` names are historical: ``learn_batch`` was retired
in PR 12; the ids stay because the tier-1 floor names them.)
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.location_cache import FOLD_AT
from repro.sim import Simulator
from tests.overlay.test_location_cache import ReferenceLRU, routed_to

KS = KeySpace(13)
RING = list(range(0, 8192, 64))  # 128 nodes


def build(cache: int) -> ChordOverlay:
    overlay = ChordOverlay(Simulator(), KS, cache_capacity=cache)
    overlay.build_ring(RING)
    return overlay


def cache_view(node) -> list[int]:
    """The ids a cached next-hop search sees, nearest clockwise first,
    folded and brought current as such a read brings them."""
    cache = node._cache
    if cache.log:
        cache.fold()
    cache.materialize(KS.size)
    return list(cache.ids)


def receive_stamped(node, arcs) -> None:
    """Hand ``node`` a routed message whose hops stamped ``arcs``
    (delivered there; ``learn`` itself takes bare ids only)."""
    node.receive(routed_to(node, tuple(slot for arc in arcs for slot in arc)))


def test_learn_batch_matches_sequential_learns_exactly():
    node = build(cache=4).node(0)
    oracle = ReferenceLRU(0, 4)
    for sequence in [[64, 128], [192, 64], [256, 320, 384]]:
        node.learn(sequence)
        oracle.learn(sequence)
    assert node.cached_ids() == oracle.order


def test_learn_batch_pins_eviction_order():
    node = build(cache=3).node(0)
    node.learn([64, 128, 192])
    # 256 inserts and 64 (the oldest) goes; the refresh of 128 in the
    # same sequence must land *before* the insert of 320 pushes 192
    # out — eviction by recency at the end of the sequence, or the
    # victim set diverges.
    node.learn([256, 128, 320])
    assert node.cached_ids() == [256, 128, 320]


def test_learn_batch_refresh_only_keeps_order_without_eviction():
    node = build(cache=3).node(0)
    node.learn([64, 128, 192])
    table = cache_view(node)
    node.learn([64])  # pure LRU refreshes: the cache view is untouched
    node.learn([128])
    assert node.cached_ids() == [192, 64, 128]
    assert cache_view(node) == table


def test_learn_batch_ignores_self_and_capacity_zero():
    node = build(cache=4).node(0)
    node.learn([0, 64])
    assert node.cached_ids() == [64]
    disabled = build(cache=0).node(0)
    disabled.learn([64, 128])
    assert disabled.cached_ids() == []


@pytest.mark.parametrize("cache", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [1, 7, 20260808])
def test_learn_batch_randomized_equivalence(cache, seed):
    rng = random.Random(seed)
    node = build(cache).node(0)
    oracle = ReferenceLRU(0, cache)
    for _ in range(40):
        for _ in range(rng.randint(1, 4)):
            sequence = [rng.choice(RING) for _ in range(rng.randint(1, 6))]
            node.learn(sequence)
            oracle.learn(sequence)
        assert node.cached_ids() == oracle.order
        if rng.random() < 0.5:  # read on some rounds, let others pile up
            assert cache_view(node) == sorted(oracle.order)


# -- the fold: reads, bound, forget, small capacities ------------------------


def expected_hop(node, oracle: ReferenceLRU, key: int) -> int:
    """Closest known node at or before ``key`` (every node is alive)."""
    target = (key - node.id) % KS.size
    known = set(node._overlay.compute_fingers(node.id)) | set(oracle.order)
    reachable = [n for n in known if (n - node.id) % KS.size <= target]
    if not reachable:
        return node.successor
    return max(reachable, key=lambda n: (n - node.id) % KS.size)


@pytest.mark.parametrize("reader", ["cached_ids", "next_hop", "routing_table"])
@pytest.mark.parametrize("cache", [1, 3, 16, 200])
def test_fold_matches_reference_through_every_reader(cache, reader):
    rng = random.Random(f"{cache}:{reader}")
    node = build(cache).node(0)
    oracle = ReferenceLRU(0, cache)
    for _ in range(60):
        # Anything from one short sequence to a run several times the
        # fold bound, with no read in between.
        for _ in range(rng.choice((1, 2, 5, 40))):
            sequence = [rng.choice(RING) for _ in range(rng.randint(1, 7))]
            node.learn(sequence)
            oracle.learn(sequence)
        if rng.random() < 0.3:
            victim = rng.choice(RING)
            node.forget(victim)
            oracle.forget(victim)
        if reader == "next_hop":
            key = rng.randrange(KS.size)
            assert node._next_hop(key) == expected_hop(
                node, oracle, key
            )
        elif reader == "routing_table":  # the cache view
            assert cache_view(node) == sorted(oracle.order)
        assert node.cached_ids() == oracle.order


def test_fold_bound_is_crossed_without_a_read():
    node = build(cache=8).node(0)
    oracle = ReferenceLRU(0, 8)
    rng = random.Random(3)
    touched = 0
    while touched <= 3 * FOLD_AT:
        sequence = [rng.choice(RING) for _ in range(5)]
        node.learn(sequence)
        oracle.learn(sequence)
        touched += 2 * len(sequence)  # a touch is an (id, predecessor) pair
        # The log folds itself, at the same bound in slots (hence in
        # bytes) as when a touch was a bare id.
        assert len(node._cache.log) <= FOLD_AT
    assert node.cached_ids() == oracle.order


def test_fold_keeps_the_arc_of_the_last_touch_per_id():
    node = build(cache=3).node(0)
    oracle = ReferenceLRU(0, 3)
    steps = [
        [(64, 0), (128, 64), (320, 256)],  # a path: every hop stamped
        [(64, None)],  # a bare touch is a bare pointer again
        [(128, 100), (192, 128)],  # restamped: the last touch wins
        [(192, None)],
        [(256, 192)],  # evicts the oldest entry, arc and all
        [(0, 8128)],  # self is never cached
    ]
    for arcs in steps:
        if arcs[0][1] is None:
            node.learn([node_id for node_id, _ in arcs])
        else:
            receive_stamped(node, arcs)
        oracle.touch(arcs)
    assert node.cached_ids() == oracle.order == [128, 192, 256]
    assert node._cache.entries == oracle.arcs == {128: 100, 192: None, 256: 192}


def test_fold_keeps_untouched_entries_in_order_ahead_of_touched_ones():
    node = build(cache=6).node(0)
    node.learn([64, 128, 192, 256, 320])
    assert node.cached_ids() == [64, 128, 192, 256, 320]
    node.learn([192, 64])
    node.learn([384, 192])
    # 128, 256, 320 untouched, in their old order; then 64, 384, 192 by
    # last touch.
    assert node.cached_ids() == [128, 256, 320, 64, 384, 192]
    node.learn([448])  # over capacity: the oldest untouched entry goes
    assert node.cached_ids() == [256, 320, 64, 384, 192, 448]


def test_fold_with_forget_between_learns():
    node = build(cache=3).node(0)
    node.learn([64, 128, 192])
    node.forget(128)  # folds first: 128 is there to be forgotten
    node.learn([256])
    assert node.cached_ids() == [64, 192, 256]
    node.learn([128, 320])
    node.forget(320)  # an id that was only in the log until this fold
    assert node.cached_ids() == [256, 128]


def test_fold_capacity_one_and_sequence_longer_than_capacity():
    node = build(cache=1).node(0)
    node.learn([64, 128, 64, 192])
    assert node.cached_ids() == [192]
    node.learn([192, 256, 192])
    assert node.cached_ids() == [192]
    small = build(cache=2).node(0)
    small.learn([64, 128, 192, 256, 128])
    assert small.cached_ids() == [256, 128]
    assert cache_view(small) == [128, 256]


def test_fold_self_only_sequences_change_nothing():
    node = build(cache=4).node(0)
    node.learn([0])
    node.learn([0, 0])
    assert node.cached_ids() == []
    node.learn([64, 128])
    table = cache_view(node)
    node.learn([0])
    assert node.cached_ids() == [64, 128]
    assert cache_view(node) == table
