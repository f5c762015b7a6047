"""Property: the merged finger+cache table is an exact derived view.

``ChordNode`` brings its distance-sorted routing table current only
when a cached next-hop search reads it: writers journal the ids they
touch, a short journal is replayed by splice and a long one is dropped
for a single re-sort.  Whatever the interleaving of cache writes,
membership changes and reads — and whichever side of that cutover a
read lands on — ``routing_table()`` must equal the from-scratch
derivation ``(fingers | cache) - {self}`` and ``_next_hop`` must equal
a brute-force scan of it, dead-entry eviction included.

The cache under the table is itself deferred — ``learn`` appends to a
touch log that ``_fold`` applies on the next cached read or past its
length bound — so each watched node is shadowed by the reference LRU of
``test_learn_batch``: after every read the cache must hold the same ids
in the same LRU order, whichever reader folded and however many learns,
forgets and dead-entry evictions the fold spanned.

Seeded, 3 cache capacities x 100 seeds.  The op mix has both single
writes followed by a read (journal replay) and long write bursts
between reads (journal dropped; the longest also outruns the fold
bound), at table lengths from a handful of fingers (capacity 0 and 2)
up to the whole ring (capacity 128).
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from tests.overlay.test_learn_batch import ReferenceLRU

KS = KeySpace(13)
SIZE = KS.size


def distance(node, other: int) -> int:
    return (other - node.id) % SIZE


def derived_table(overlay, node, cached) -> list[int]:
    members = set(overlay.compute_fingers(node.id)) | set(cached)
    members.discard(node.id)
    return sorted(members, key=lambda nid: distance(node, nid))


def brute_force_next_hop(overlay, node, key: int, cached) -> tuple[int, set[int]]:
    """The expected hop and the dead entries the scan must evict."""
    target = distance(node, key)
    table = derived_table(overlay, node, cached)
    reachable = [n for n in table if distance(node, n) <= target]
    live = [n for n in reachable if overlay.is_alive(n)]
    if not live:
        return overlay.successor_of(node.id), set(reachable)
    best = live[-1]
    examined = {n for n in reachable if distance(node, n) > distance(node, best)}
    return best, examined


def run_example(cache: int, seed: int) -> None:
    rng = random.Random(f"{cache}:{seed}")
    ids = rng.sample(range(SIZE), rng.randint(12, 48))
    overlay = ChordOverlay(Simulator(), KS, cache_capacity=cache)
    overlay.build_ring(ids)
    watched = [overlay.node(nid) for nid in ids[:3]]
    lru = {node.id: ReferenceLRU(node.id, cache) for node in watched}
    protected = {node.id for node in watched}
    live = set(ids)
    known = list(ids)  # live and departed ids: learns may name the dead

    def check(node) -> None:
        reference = lru[node.id].order
        assert node.routing_table() == derived_table(overlay, node, reference)
        assert node.cached_ids() == reference

    for _ in range(rng.randint(40, 120)):
        node = rng.choice(watched)
        roll = rng.random()
        if roll < 0.40:
            # One sequence, a burst long enough to outgrow any journal,
            # or one that also outruns the fold bound.
            for _ in range(rng.choice((1, 1, 1, 12, 40))):
                sequence = rng.choices(known, k=rng.randint(1, 5))
                node.learn(sequence)
                lru[node.id].learn(sequence)
        elif roll < 0.48:
            victim = rng.choice(known)
            node.forget(victim)
            lru[node.id].forget(victim)
        elif roll < 0.56:
            candidate = rng.randrange(SIZE)
            if candidate not in live:
                overlay.join(candidate)
                live.add(candidate)
                known.append(candidate)
        elif roll < 0.66:
            victims = sorted(live - protected)
            if len(victims) > 4:
                victim = rng.choice(victims)
                (overlay.leave if rng.random() < 0.5 else overlay.crash)(victim)
                live.discard(victim)
        elif roll < 0.72:
            node.fingers()  # the m-cast side: syncs fingers, reads no table
        elif roll < 0.90:
            # The expectation is computed from the reference LRU alone,
            # so _next_hop is the reader that folds here.
            key = rng.randrange(SIZE)
            expected, evicted = brute_force_next_hop(
                overlay, node, key, lru[node.id].order
            )
            assert node._next_hop(key, use_cache=True) == expected
            for dead in evicted:
                lru[node.id].forget(dead)
            check(node)
        else:
            check(node)
    for node in watched:
        check(node)


@pytest.mark.parametrize("cache", [0, 2, 128])
def test_random_interleavings_keep_table_and_next_hop_exact(cache):
    for seed in range(100):
        run_example(cache, seed)
