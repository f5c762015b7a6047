"""Property: next hop and m-cast partition against brute-force rules.

A :class:`ChordNode` reads its fingers off the sorted ring, one slot
per decision, and merges them with its cache view, which it brings
current only when a cached read needs it: writers journal the ids they
touch, a short journal is replayed by splice and a long one is dropped
for a single re-sort.  Whatever the interleaving of cache writes,
membership changes and reads — and whichever side of that cutover a
read lands on — the view must equal the cache sorted by clockwise
distance, and two decisions must equal references written over
``compute_fingers(id) | cache``:

- ``_next_hop``: the key's owner when a pointer certifies it — the
  finger whose slot start is the nearest power of two below the key,
  when that finger *is* the key's owner, else the first table entry past
  the key when it is live and the arc it last stamped covers the key —
  and otherwise a brute-force scan for the closest live entry at or
  before the key, dead-entry eviction included.
- one ``continue_mcast`` step, at a forwarder (fingers alone) and at the
  origin (``start_mcast``: fingers and cache), its branches recorded
  off the overlay's transmit: keys grouped between consecutive
  pointers, a group jumping whole to the pointer past it when its
  nearest key is certified and otherwise sent to the pointer strictly
  preceding it, a forwarder overshot by more than half the ring handing
  everything to its predecessor, and a dead cached pointer met at a
  group's boundary forgotten before the partition starts over.

The cache under the view is itself deferred — ``learn`` appends to a
touch log that ``LocationCache.fold`` applies on the next cached read or
past its length bound — so each watched node is shadowed by the
reference LRU of ``test_location_cache``: after every read the cache must hold the same ids
in the same LRU order with the same stamped arcs, whichever reader
folded and however many learns, forgets and dead-entry evictions the
fold spanned.  Touches are bare ids (``learn``) or the stamped path of
a received message, its arcs true or stale at random.

Seeded, 3 cache capacities x 100 seeds on rings of 12 to 48 nodes, and
the same loop from rings of 1, 2 and 3 nodes.  The op mix has both
single writes followed by a read (journal replay) and long write bursts
between reads (journal dropped; the longest also outruns the fold
bound), at views from empty (capacity 0) up to the whole ring
(capacity 128).
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.api import MessageKind, OverlayMessage, RoutingMode, next_request_id
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeyRuns, KeySpace
from repro.sim import Simulator
from tests.overlay.test_learn_batch import cache_view, receive_stamped
from tests.overlay.test_location_cache import ReferenceLRU

KS = KeySpace(13)
SIZE = KS.size


def distance(node, other: int) -> int:
    return (other - node.id) % SIZE


def derived_table(overlay, node, cached) -> list[int]:
    members = set(overlay.compute_fingers(node.id)) | set(cached)
    members.discard(node.id)
    return sorted(members, key=lambda nid: distance(node, nid))


def reference_mcast(overlay, node, keys, arcs, forwarder):
    """The branches (pointer -> keys) one m-cast step at ``node`` sends
    and the dead cached pointers it forgets; ``arcs`` is the cache's
    stamped arcs at the origin, None at a forwarder or an empty cache."""
    me = node.id
    pred = overlay.predecessor_of(me)
    rest = sorted(
        (k for k in keys if pred != me and not KS.in_open_closed(k, pred, me)),
        key=lambda k: distance(node, k),
    )
    if not rest:
        return {}, set()
    if forwarder and distance(node, rest[0]) > SIZE // 2:
        return {pred: KeyRuns.from_keys(rest)}, set()  # overshot
    fingers = set(overlay.compute_fingers(me))
    forgotten: set[int] = set()
    while True:
        cached = set(arcs or ()) - forgotten
        pointers = sorted(fingers | cached, key=lambda n: distance(node, n))
        branches: dict[int, set[int]] = {}
        reach = 0  # the current group ends at this distance
        dead = None
        for key in rest:
            target = distance(node, key)
            if target > reach:  # the nearest key of a new group
                start = (me + (1 << (target.bit_length() - 1))) % SIZE
                slot = overlay.owner_of(start)
                if distance(node, slot) >= target:  # certified: up to it
                    pointer, reach = slot, distance(node, slot)
                else:
                    before = [n for n in pointers if distance(node, n) < target]
                    after = [n for n in pointers if distance(node, n) >= target]
                    pointer = before[-1]
                    past = after[0] if after else pointer
                    reach = distance(node, after[0]) if after else SIZE
                    if arcs is not None:
                        dead = next(
                            (n for n in (pointer, past) if not overlay.is_alive(n)),
                            None,
                        )
                        if dead is not None:
                            break
                        arc = arcs.get(past)
                        if (
                            arc is not None
                            and arc != past
                            and KS.in_open_closed(key, arc, past)
                        ):
                            pointer = past
            branches.setdefault(pointer, set()).add(key)
        if dead is None:
            return {n: KeyRuns.from_keys(k) for n, k in branches.items()}, forgotten
        forgotten.add(dead)


def sent_branches(overlay, step) -> dict[int, KeyRuns]:
    """Run ``step`` with the overlay's transmit recorded: destination ->
    the keys its branch carries (each destination gets one branch)."""
    sent: list[tuple[int, KeyRuns]] = []
    transmit = overlay._network_transmit
    overlay._network_transmit = lambda src, dst, message: sent.append(
        (dst, message.target_keys)
    )
    try:
        step()
    finally:
        overlay._network_transmit = transmit
    branches = dict(sent)
    assert len(branches) == len(sent)
    return branches


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


def run_example(cache: int, seed: int, nodes: int | None = None) -> None:
    rng = random.Random(f"{cache}:{seed}" + (f":{nodes}" if nodes else ""))
    ids = rng.sample(range(SIZE), nodes or rng.randint(12, 48))
    overlay = ChordOverlay(Simulator(), KS, cache_capacity=cache)
    overlay.build_ring(ids)
    watched = [overlay.node(nid) for nid in ids[:3]]
    lru = {node.id: ReferenceLRU(node.id, cache) for node in watched}
    protected = {node.id for node in watched}
    live = set(ids)
    known = list(ids)  # live and departed ids: learns may name the dead

    def check(node) -> None:
        reference = lru[node.id]
        assert cache_view(node) == sorted(
            reference.order, key=lambda nid: distance(node, nid)
        )
        assert node.cached_ids() == reference.order
        assert node._cache.entries == reference.arcs

    def stamp(node_id: int) -> int:
        """The arc a path hop ``node_id`` stamped: true or stale."""
        others = [other for other in known if other != node_id]
        if node_id in live and (rng.random() < 0.67 or not others):
            return overlay.predecessor_of(node_id)
        return rng.choice(others)

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
            # One m-cast step: at a forwarder, which reads fingers alone,
            # or at the origin, which folds its cache and reads the view.
            keys = rng.sample(range(SIZE), rng.choice((1, 2, 5, 8)))
            reference = lru[node.id]
            if rng.random() < 0.5:
                sender = rng.choice(sorted(live))
                message = OverlayMessage(
                    kind=MessageKind.PUBLICATION, payload=None,
                    request_id=next_request_id(), origin=sender,
                    target_keys=KeyRuns.from_keys(keys), mode=RoutingMode.MCAST, hops=1,
                    path=(sender, overlay.predecessor_of(sender)),
                )
                expected, forgotten = reference_mcast(
                    overlay, node, keys, None, forwarder=True
                )
                sent = sent_branches(overlay, lambda: node.continue_mcast(message))
            else:
                message = OverlayMessage(
                    kind=MessageKind.PUBLICATION, payload=None,
                    request_id=next_request_id(), origin=node.id,
                    target_keys=KeyRuns.from_keys(keys), mode=RoutingMode.MCAST,
                )
                arcs = dict(reference.arcs) if reference.order else None
                expected, forgotten = reference_mcast(
                    overlay, node, keys, arcs, forwarder=False
                )
                sent = sent_branches(overlay, lambda: node.start_mcast(message))
            assert sent == expected
            for dead in forgotten:
                reference.forget(dead)
            check(node)
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
    for nodes in (1, 2, 3):
        for seed in range(20):
            run_example(cache, seed, nodes)
