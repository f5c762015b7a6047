"""Property: the merged finger+cache table is an exact derived view.

``ChordNode`` brings its distance-sorted routing table current only
when a cached next-hop search reads it: writers journal the ids they
touch, a short journal is replayed by splice and a long one is dropped
for a single re-sort.  Whatever the interleaving of cache writes,
membership changes and reads — and whichever side of that cutover a
read lands on — ``routing_table()`` must equal the from-scratch
derivation ``(fingers | cache) - {self}`` and ``_next_hop`` must equal
a reference decision over it: the key's owner when a pointer certifies
it — the finger whose slot start is the nearest power of two below the
key, when that finger *is* the key's owner, else the first table entry
past the key when it is live and the arc it last stamped covers the key
— and otherwise a brute-force scan for the closest live entry at or
before the key, dead-entry eviction included.

The cache under the table is itself deferred — ``learn`` appends to a
touch log that ``LocationCache.fold`` applies on the next cached read or
past its length bound — so each watched node is shadowed by the
reference LRU of ``test_location_cache``: after every read the cache must hold the same ids
in the same LRU order with the same stamped arcs, whichever reader
folded and however many learns, forgets and dead-entry evictions the
fold spanned.  Touches are bare ids (``learn``) or the stamped path of
a received message, its arcs true or stale at random.

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
from tests.overlay.test_learn_batch import receive_stamped
from tests.overlay.test_location_cache import ReferenceLRU

KS = KeySpace(13)
SIZE = KS.size


def distance(node, other: int) -> int:
    return (other - node.id) % SIZE


def derived_table(overlay, node, cached) -> list[int]:
    members = set(overlay.compute_fingers(node.id)) | set(cached)
    members.discard(node.id)
    return sorted(members, key=lambda nid: distance(node, nid))


def reference_next_hop(overlay, node, key: int, lru) -> tuple[int, set[int]]:
    """The expected hop and the dead entries the decision must evict."""
    target = distance(node, key)
    if target:
        # Certificate (a): the finger owning the slot start nearest
        # below the key is the key's owner (ground truth, both sides).
        start = (node.id + (1 << (target.bit_length() - 1))) % SIZE
        finger = overlay.owner_of(start)
        if finger != node.id and finger == overlay.owner_of(key):
            return finger, set()
    table = derived_table(overlay, node, lru.order)
    examined = set()
    # Certificate (b): the first entry past the key, by its stamped arc.
    past = [n for n in table if distance(node, n) > target]
    if past:
        stamped = lru.arcs.get(past[0])
        if (
            stamped is not None
            and stamped != past[0]
            and KS.in_open_closed(key, stamped, past[0])
        ):
            if overlay.is_alive(past[0]):
                return past[0], set()
            examined.add(past[0])
    reachable = [n for n in table if distance(node, n) <= target]
    live = [n for n in reachable if overlay.is_alive(n)]
    if not live:
        return overlay.successor_of(node.id), examined | set(reachable)
    best = live[-1]
    examined |= {n for n in reachable if distance(node, n) > distance(node, best)}
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
        reference = lru[node.id]
        assert node.routing_table() == derived_table(overlay, node, reference.order)
        assert node.cached_ids() == reference.order
        assert node._cache.entries == reference.arcs

    def stamp(node_id: int) -> int:
        """The arc a path hop ``node_id`` stamped: true or stale."""
        if node_id in live and rng.random() < 0.67:
            return overlay.predecessor_of(node_id)
        return rng.choice([other for other in known if other != node_id])

    for _ in range(rng.randint(40, 120)):
        node = rng.choice(watched)
        roll = rng.random()
        if roll < 0.40:
            # One sequence, a burst long enough to outgrow any journal,
            # or one that also outruns the fold bound.
            for _ in range(rng.choice((1, 1, 1, 12, 40))):
                sequence = rng.choices(known, k=rng.randint(1, 5))
                if rng.random() < 0.25:  # bare ids
                    node.learn(sequence)
                    lru[node.id].learn(sequence)
                else:  # a routed message's path
                    arcs = [(node_id, stamp(node_id)) for node_id in sequence]
                    receive_stamped(node, arcs)
                    lru[node.id].touch(arcs)
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
            expected, evicted = reference_next_hop(overlay, node, key, lru[node.id])
            assert node._next_hop(key) == expected
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
