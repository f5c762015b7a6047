"""The origin of an m-cast reads its location cache; nobody else does.

``ChordNode.start_mcast`` partitions the keys over fingers *and* live
cached ids and may send a whole group straight to a cached node whose
stamped arc covers the group's nearest key.  Pinned here, in the manner
of ``test_chord_owned_arcs.py`` (whose exactly-once oracle this module
borrows):

- a stale arc — ``k`` nodes joined inside it — overshoots, and the
  overshot node hands the whole message to its predecessor: ``k`` hops
  back, every key delivered once at its owner, for an m-cast and for a
  unicast alike (the tree before this rule sent the unicast on round
  the ring);
- a dead cached id is never a group boundary: a crashed cached owner is
  forgotten and the partition starts over, and two keys of one owner on
  either side of a dead id still travel together;
- with the cache off the origin, and with any cache every forwarder,
  sends exactly the branches of the fingers-only partition, kept below
  as a reference written from the ring's ground truth;
- a property over random rings, random and deliberately false cache
  contents, membership changes behind the cache's back and scattered
  key sets: complete, each owner once.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from tests.overlay.test_chord_owned_arcs import (
    SIZE,
    assert_exactly_once_at_owners,
    build,
    cast,
    random_keys,
    warm,
)
from tests.overlay.test_learn_batch import RING, receive_stamped

from repro.overlay.ids import KeyRuns

# Seen from node 0 of the 128-node ring (every 64th id) the fingers are
# 64, 128, 256 ... 4096.  3008 is no finger; its arc (2944, 3008] is what
# the cases below cache at node 0, and slot 11 (start and owner 2048)
# certifies no key past 2048, so the cached arc decides.
OWNER, PRED = 3008, 2944
#: Hops the PR 22 tree took for either unicast below: the stale jump,
#: then clockwise from 3008 all the way round to the first joiner.
ROUND_THE_RING = 7


class Sends:
    """Tap observer: each transmission as ``(src, dst, path, keys)``,
    copied at send time (envelopes are reused)."""

    def __init__(self, overlay) -> None:
        self.log: list[tuple] = []
        overlay.network.tap.attach(self)

    def on_send(self, message, src, dst, now, arrival) -> None:
        self.log.append((src, dst, message.path, message.target_keys))

    def fan_outs(self) -> dict[tuple, dict[int, KeyRuns]]:
        """``(src, path) -> {dst: keys}``: the branches of one fan-out
        share one path tuple."""
        fans: dict[tuple, dict[int, KeyRuns]] = defaultdict(dict)
        for src, dst, path, keys in self.log:
            assert dst not in fans[src, path]
            fans[src, path][dst] = keys
        return fans


def cached_arc_setup():
    sim, overlay = build(RING, cache=8)
    node = overlay.node(0)
    receive_stamped(node, [(OWNER, PRED)])
    return sim, overlay, node


# -- stale arcs: the overshoot steps back ---------------------------------------


@pytest.mark.parametrize("joiners", [(2976,), (2960, 2976, 2992)])
def test_mcast_over_a_split_arc_steps_back_once_per_joiner(joiners):
    sim, overlay, node = cached_arc_setup()
    for joiner in joiners:
        overlay.join(joiner)  # node 0 still believes 3008 owns (2944, 3008]
    assert not set(joiners) & set(overlay.compute_fingers(node.id))
    keys = [joiner - 5 for joiner in joiners] + [3000]
    sends = Sends(overlay)
    deliveries = cast(sim, overlay, "mcast", 0, keys)
    assert_exactly_once_at_owners(overlay, keys, deliveries)
    # The stale jump, then one predecessor hop per joiner, nothing else.
    chain = (0, OWNER, *reversed(joiners))
    assert [(src, dst) for src, dst, _, _ in sends.log] == list(zip(chain, chain[1:]))
    last = next(message for nid, message in deliveries if nid == joiners[0])
    assert last.hops == 1 + len(joiners)


@pytest.mark.parametrize("joiners", [(2976,), (2960, 2976, 2992)])
def test_unicast_over_a_split_arc_steps_back_once_per_joiner(joiners):
    sim, overlay, node = cached_arc_setup()
    for joiner in joiners:
        overlay.join(joiner)
    ((nid, message),) = cast(sim, overlay, "unicast", 0, [joiners[0] - 5])
    assert nid == joiners[0]
    assert message.path[::2] == (0, OWNER, *reversed(joiners[1:]))
    assert message.hops == 1 + len(joiners) < ROUND_THE_RING
    # A key the stale arc still describes correctly goes straight.
    ((nid, message),) = cast(sim, overlay, "unicast", 0, [3000])
    assert (nid, message.hops) == (OWNER, 1)


# -- dead pointers: never a boundary ----------------------------------------------


def test_crashed_cached_owner_is_forgotten_and_the_partition_restarts():
    sim, overlay, node = cached_arc_setup()
    overlay.crash(OWNER)
    keys = [2950, 3000]
    sends = Sends(overlay)
    deliveries = cast(sim, overlay, "mcast", 0, keys)
    assert_exactly_once_at_owners(overlay, keys, deliveries)
    assert OWNER not in node.cached_ids()
    # Restarted on what is left, the fingers: the whole group goes to
    # the finger before it, and nothing was ever addressed to the dead.
    assert sends.log[0][:2] == (0, 2048) and sends.log[0][3] == KeyRuns.from_keys(keys)
    assert all(dst != OWNER for _, dst, _, _ in sends.log)


def test_dead_cached_id_between_two_keys_of_one_owner_delivers_once():
    """2950 and 3000 are both 3008's.  Were the dead 2976 a boundary,
    2950 would fall back to 2944 and 3000 jump on 3008's arc
    (2976, 3008]: two messages, two deliveries at 3008."""
    sim, overlay = build(RING + [2976], cache=8)
    node = overlay.node(0)
    node.learn([2976])
    receive_stamped(node, [(OWNER, 2976)])
    overlay.crash(2976)
    deliveries = cast(sim, overlay, "mcast", 0, [2950, 3000])
    assert [(nid, m.target_keys) for nid, m in deliveries] == [
        (OWNER, KeyRuns.from_keys({2950, 3000}))
    ]
    assert node.cached_ids() == [OWNER]


# -- cache off, and every forwarder: the fingers-only partition -------------------


def fingers_only_branches(overlay, node_id, keys) -> dict[int, KeyRuns]:
    """What the tree before the origin read its cache sent, from ground
    truth: the keys between two consecutive fingers go to the finger
    past them when its slot certifies the nearest of them, else to the
    finger strictly before them."""

    def clockwise(other: int) -> int:
        return (other - node_id) % SIZE

    fingers = overlay.compute_fingers(node_id)
    slots = overlay.compute_finger_slots(node_id)
    branches: dict[int, set[int]] = defaultdict(set)
    reach = 0
    pointer = None
    for key in sorted(keys, key=clockwise):
        if clockwise(key) > reach:
            pointer = slots[clockwise(key).bit_length() - 1]
            reach = clockwise(pointer)
            if reach < clockwise(key):
                pointer = [f for f in fingers if clockwise(f) < clockwise(key)][-1]
                past = [f for f in fingers if clockwise(f) >= clockwise(key)]
                reach = clockwise(past[0]) if past else SIZE
        branches[pointer].add(key)
    return {pointer: KeyRuns.from_keys(group) for pointer, group in branches.items()}


@pytest.mark.parametrize("cache", [0, 16])
def test_cache_off_origins_and_all_forwarders_send_the_fingers_only_branches(cache):
    origins_checked = origins_moved = forwards = 0
    for seed in range(10):
        rng = random.Random(f"reference:{cache}:{seed}")
        ids = rng.sample(range(SIZE), rng.randint(20, 120))
        sim, overlay = build(ids, cache)
        warm(sim, overlay, rng, 3 * len(ids))
        sends = Sends(overlay)
        for _ in range(8):
            origin = rng.choice(ids)
            del sends.log[:]
            cast(sim, overlay, "mcast", origin, random_keys(rng))
            for (src, path), sent in sends.fan_outs().items():
                wanted = fingers_only_branches(
                    overlay, src, frozenset().union(*sent.values())
                )
                if len(path) > 2:  # a forwarder: the origin stamped first
                    assert sent == wanted
                    forwards += 1
                elif not overlay.node(src).cached_ids():
                    assert sent == wanted
                    origins_checked += 1
                else:
                    origins_moved += sent != wanted
    assert forwards > 300
    if cache:
        assert origins_moved > 40  # the check above has something to miss
    else:
        assert origins_checked == 80


# -- property -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sets(st.integers(0, SIZE - 1), min_size=1, max_size=60),
)
def test_property_mcast_from_any_cache_is_complete_and_exactly_once(seed, keys):
    rng = random.Random(seed)
    ids = rng.sample(range(SIZE), rng.randint(3, 80))
    sim, overlay = build(ids, cache=16)
    origin = rng.choice(ids)
    node = overlay.node(origin)
    # True arcs, arcs that never were, bare pointers, ids of no node.
    arcs = []
    for _ in range(rng.randint(0, 24)):
        cached = rng.choice(ids) if rng.random() < 0.8 else rng.randrange(SIZE)
        roll = rng.random()
        if roll < 0.5 and overlay.is_alive(cached):
            arcs.append((cached, overlay.predecessor_of(cached)))
        elif roll < 0.85:
            arcs.append((cached, rng.randrange(SIZE)))
        else:
            arcs.append((cached, None))
    if arcs:
        receive_stamped(node, arcs)
    # Then the ring moves on without telling the cache.
    for _ in range(rng.randint(0, len(ids) // 3)):
        live = overlay.node_ids()
        roll = rng.random()
        if roll < 0.5:
            joiner = rng.randrange(SIZE)
            if not overlay.is_alive(joiner):
                overlay.join(joiner)
        elif len(live) > 3:
            victim = rng.choice(live)
            if victim != origin:
                (overlay.leave if roll < 0.75 else overlay.crash)(victim)
    deliveries = cast(sim, overlay, "mcast", origin, sorted(keys))
    assert_exactly_once_at_owners(overlay, keys, deliveries)
