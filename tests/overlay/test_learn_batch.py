"""Order-exact cache learning over a bucket's worth of sequences.

A ``(dst, tick)`` bucket hands a node several learn sequences back to
back (one per message: its path plus its origin).  ``learn_batch`` used
to fold them into one call and is retired — the ledger showed no gain
once ``learn`` stopped syncing — so the contract it had to preserve is
pinned on ``learn`` itself, against an independent reference LRU: same
final cache contents *and same LRU order*, same eviction victims in the
same order (eviction runs once per sequence, after all of its ids), and
a merged routing table equal to the from-scratch derivation.
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)
RING = list(range(0, 8192, 64))  # 128 nodes


def build(cache: int) -> ChordOverlay:
    overlay = ChordOverlay(Simulator(), KS, cache_capacity=cache)
    overlay.build_ring(RING)
    return overlay


class ReferenceLRU:
    """The location cache as its definition reads: least recent first."""

    def __init__(self, owner: int, capacity: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.order: list[int] = []

    def learn(self, node_ids) -> None:
        for node_id in node_ids:
            if node_id == self.owner:
                continue
            if node_id in self.order:
                self.order.remove(node_id)
            self.order.append(node_id)
        del self.order[: max(0, len(self.order) - self.capacity)]


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
    table = node.routing_table()
    node.learn([64])  # pure LRU refreshes: the routing table is untouched
    node.learn([128])
    assert node.cached_ids() == [192, 64, 128]
    assert node.routing_table() == table


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
    fingers = set(node.fingers())
    for _ in range(40):
        for _ in range(rng.randint(1, 4)):
            sequence = [rng.choice(RING) for _ in range(rng.randint(1, 6))]
            node.learn(sequence)
            oracle.learn(sequence)
        assert node.cached_ids() == oracle.order
        if rng.random() < 0.5:  # read on some rounds, let others pile up
            assert node.routing_table() == sorted(fingers | set(oracle.order))
