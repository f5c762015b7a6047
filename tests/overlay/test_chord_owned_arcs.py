"""Owned-arc routing: a key may jump to a pointer certified to own it.

A ``ChordNode`` sends a key straight to a finger (slot certificate,
exact) or to a cached node (stamped arc, possibly stale) it believes
owns the key.  Whatever it believes, delivery rests on one thing only:
the receiver's own ``covers`` test.  Pinned here, on seeded random rings
with the cache off and on (warmed by traffic, so nodes hold true arcs):

- every target key of an m-cast, a sequential walk and a unicast is
  delivered exactly once, at ``owner_of(key)``, and no node delivers
  twice per request;
- the m-cast *group* rule, on the counterexample that rules out a
  per-key jump;
- stale arcs — a join inside a cached arc, the departure of a cached
  predecessor, the crash of a cached owner, and random churn under warm
  caches — still deliver every key exactly once at its current owner.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from tests.overlay.test_learn_batch import receive_stamped

KS = KeySpace(13)
SIZE = KS.size


def build(ids, cache):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=cache)
    overlay.build_ring(ids)
    return sim, overlay


def msg(src):
    return OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )


def cast(sim, overlay, how, src, keys):
    """Run one request to quiescence; its ``(node, message)`` deliveries."""
    deliveries = []
    overlay.set_deliver(lambda nid, m: deliveries.append((nid, m)))
    if how == "unicast":
        (key,) = keys
        overlay.send(src, key, msg(src))
    elif how == "mcast":
        overlay.mcast(src, keys, msg(src))
    else:
        overlay.sequential_cast(src, keys, msg(src))
    sim.run()
    return deliveries


def assert_exactly_once_at_owners(overlay, keys, deliveries):
    """Each key once, at its owner; each node at most once."""
    nodes = Counter(nid for nid, _ in deliveries)
    assert all(count == 1 for count in nodes.values()), nodes
    assert set(nodes) == {overlay.owner_of(key) for key in keys}
    delivered = Counter()
    for nid, message in deliveries:
        carried = message.target_keys
        if carried is None:
            carried = {message.key}
        delivered.update(key for key in carried if overlay.owner_of(key) == nid)
    assert delivered == Counter(set(keys))


def warm(sim, overlay, rng, sends):
    """Unicast traffic between random pairs: caches fill with true arcs."""
    overlay.set_deliver(lambda nid, m: None)
    nodes = overlay.node_ids()
    for _ in range(sends):
        src = rng.choice(nodes)
        overlay.send(src, rng.randrange(SIZE), msg(src))
        sim.run()


def random_keys(rng):
    """A clustered range, a scattered set, or both (as subscriptions map)."""
    keys = set()
    if rng.random() < 0.7:
        start = rng.randrange(SIZE)
        keys.update((start + i) % SIZE for i in range(rng.randint(1, 400)))
    if not keys or rng.random() < 0.5:
        keys.update(rng.randrange(SIZE) for _ in range(rng.randint(1, 12)))
    return sorted(keys)


@pytest.mark.parametrize("cache", [0, 16])
@pytest.mark.parametrize("how", ["mcast", "sequential", "unicast"])
def test_every_key_delivered_exactly_once_at_its_owner(how, cache):
    for seed in range(25):
        rng = random.Random(f"{how}:{cache}:{seed}")
        ids = rng.sample(range(SIZE), rng.randint(2, 120))
        sim, overlay = build(ids, cache)
        if cache:
            warm(sim, overlay, rng, 3 * len(ids))
        for _ in range(8):
            src = rng.choice(ids)
            keys = [rng.randrange(SIZE)] if how == "unicast" else random_keys(rng)
            deliveries = cast(sim, overlay, how, src, keys)
            assert_exactly_once_at_owners(overlay, keys, deliveries)


def test_the_walk_routes_a_picked_key_clockwise_past_half_the_ring():
    """A walk node that delivers and picks the next key addresses it, as a
    unicast's sender does: a key more than half the ring ahead goes
    clockwise, not back through the picker's predecessor as if an arc
    had overshot it."""
    sim, overlay = build(random.Random(4).sample(range(SIZE), 40), cache=0)
    ids = overlay.node_ids()
    origin, picker = ids[0], ids[5]
    far = (picker + SIZE // 2 + SIZE // 8) % SIZE
    predecessor = overlay.predecessor_of(picker)
    assert overlay.owner_of(far) not in (origin, picker, predecessor)
    deliveries = cast(sim, overlay, "sequential", origin, [picker, far])
    assert [nid for nid, _ in deliveries] == [picker, overlay.owner_of(far)]
    path = list(deliveries[1][1].path[::2])
    assert path[0] == origin and picker in path
    after = path[path.index(picker) + 1]
    assert after == overlay.node(picker)._next_hop(far) != predecessor


# -- the m-cast group rule ----------------------------------------------------

# Node 0's slot 9 starts at 512 and is owned by 600; slot 10 starts at
# 1024 and is owned by 1500, with no node in between.  Key 900 lies
# before 1024, so no slot of node 0 certifies its owner; key 1100 lies
# after, so slot 10 does.  Both are owned by 1500.
GROUP_RING = (0, 600, 1500, 3000, 5000, 7000)


def test_mcast_group_with_an_uncertified_nearest_key_travels_whole():
    """The per-key-jump counterexample: 1100 alone could jump to 1500,
    but then 900 would reach 1500 again through 600 and 1500 would
    deliver twice.  The group goes to 600 whole, then on to 1500."""
    sim, overlay = build(GROUP_RING, cache=0)
    deliveries = cast(sim, overlay, "mcast", 0, [900, 1100])
    assert [(nid, m.target_keys, m.path[::2]) for nid, m in deliveries] == [
        (1500, frozenset({900, 1100}), (0, 600))
    ]


def test_mcast_group_with_a_certified_nearest_key_jumps_whole():
    sim, overlay = build(GROUP_RING, cache=0)
    deliveries = cast(sim, overlay, "mcast", 0, [1100, 1200, 1500])
    assert [(nid, m.target_keys, m.path[::2]) for nid, m in deliveries] == [
        (1500, frozenset({1100, 1200, 1500}), (0,))
    ]


def test_mcast_groups_bound_for_one_finger_share_a_branch():
    """A group jumping to 1500 and the keys past 1500 that fall back to
    it make one message, which 1500 delivers and splits on."""
    sim, overlay = build(GROUP_RING, cache=0)
    keys = [1100, 1600, 2900]
    deliveries = cast(sim, overlay, "mcast", 0, keys)
    assert_exactly_once_at_owners(overlay, keys, deliveries)
    at_1500 = next(m for nid, m in deliveries if nid == 1500)
    assert at_1500.target_keys == frozenset(keys)
    assert at_1500.path[::2] == (0,)


def test_mcast_routes_on_fingers_alone():
    """Only the origin of an m-cast reads its location cache.  A node
    that forwarded or delivered m-casts, whatever its cache holds, never
    built the merged finger+cache table and never folded its touch log;
    the origins that had something cached — and only they — hold one."""
    rng = random.Random("fingers-only")
    sim, overlay = build(rng.sample(range(SIZE), 150), cache=16)
    senders = overlay.node_ids()[::3]  # each hears of a node before it sends
    cast(sim, overlay, "mcast", senders[0], senders)
    cast(sim, overlay, "mcast", senders[1], senders)
    origins = rng.sample(senders, 18)
    for origin in origins:
        cast(sim, overlay, "mcast", origin, random_keys(rng))
    touched = 0
    for node_id in overlay.node_ids():
        node = overlay.node(node_id)
        if node_id in origins:
            assert node._cache.journal is not None and node._cache.ids
        elif node_id not in senders[:2]:
            assert node._cache.journal is None and not node._cache.ids
            assert not node._cache.entries  # nothing folded
            touched += bool(node._cache.log)
    assert touched > 100


# -- stale arcs -----------------------------------------------------------------

# Seen from node 0: fingers are 700 (slots up to start 512), 1100 (start
# 1024), 2100 (start 2048) and 4200 (start 4096).  3000 is no finger;
# its arc (2100, 3000] is what the cases below cache at node 0.  For a
# key in (2148, 3000] slot 11 certifies nothing (its owner 2100 lies
# before the key), so the cached arc decides.
ARC_RING = (0, 700, 1100, 2100, 3000, 4200, 6000)


def cached_arc_setup():
    sim, overlay = build(ARC_RING, cache=8)
    node = overlay.node(0)
    receive_stamped(node, [(3000, 2100)])
    return sim, overlay, node


def test_cached_arc_reaches_the_owner_past_the_key_in_one_hop():
    sim, overlay, node = cached_arc_setup()
    assert node._next_hop(2500) == 3000
    ((nid, message),) = cast(sim, overlay, "unicast", 0, [2500])
    assert (nid, message.hops) == (3000, 1)
    # Without the arc the key walks through the owner's predecessor.
    node.learn([3000])
    assert node._next_hop(2500) == 2100


def test_cached_arc_is_learned_from_the_stamps_a_message_carries():
    sim, overlay = build(ARC_RING, cache=8)
    ((nid, message),) = cast(sim, overlay, "unicast", 3000, [0])
    assert (nid, message.path) == (0, (3000, 2100))  # id, predecessor
    node = overlay.node(0)
    assert node.cached_ids() == [3000]  # a read: folds the touch log
    assert node._cache.entries[3000] == 2100
    assert node._next_hop(2500) == 3000


def test_join_inside_a_cached_arc_overshoots_and_still_delivers():
    sim, overlay, node = cached_arc_setup()
    overlay.join(2600)  # now owns (2100, 2600]; node 0 still believes 3000 does
    assert 2600 not in overlay.compute_fingers(node.id)
    assert node._next_hop(2500) == 3000
    ((nid, message),) = cast(sim, overlay, "unicast", 0, [2500])
    assert nid == overlay.owner_of(2500) == 2600
    assert message.path[:4:2] == (0, 3000)  # the stale jump, then routed on
    # A key the stale arc still describes correctly goes straight.
    ((nid, message),) = cast(sim, overlay, "unicast", 0, [2700])
    assert (nid, message.hops) == (3000, 1)


def test_departure_of_a_cached_predecessor_only_narrows_the_arc():
    sim, overlay, node = cached_arc_setup()
    overlay.leave(2100)  # 3000 now owns (1100, 3000]; the arc says (2100, 3000]
    for key in (1500, 2100, 2101, 2500, 3000):
        ((nid, _),) = cast(sim, overlay, "unicast", 0, [key])
        assert nid == overlay.owner_of(key) == 3000


def test_crash_of_a_cached_owner_falls_back_and_evicts_it():
    sim, overlay, node = cached_arc_setup()
    overlay.crash(3000)
    assert node._next_hop(2500) == 2100
    assert 3000 not in node.cached_ids()
    ((nid, _),) = cast(sim, overlay, "unicast", 0, [2500])
    assert nid == overlay.owner_of(2500) == 4200


@pytest.mark.parametrize("how", ["mcast", "sequential", "unicast"])
def test_churn_under_warm_caches_still_delivers_exactly_once(how):
    """Membership changes with no traffic in between: every cached arc
    may be stale in any of the three ways when the request is routed."""
    for seed in range(25):
        rng = random.Random(f"churn:{how}:{seed}")
        ids = rng.sample(range(SIZE), rng.randint(8, 100))
        sim, overlay = build(ids, cache=16)
        warm(sim, overlay, rng, 3 * len(ids))
        for _ in range(6):
            for _ in range(rng.randint(1, len(ids) // 4)):
                live = overlay.node_ids()
                roll = rng.random()
                if roll < 0.4:
                    candidate = rng.randrange(SIZE)
                    if not overlay.is_alive(candidate):
                        overlay.join(candidate)
                elif len(live) > 4:
                    (overlay.leave if roll < 0.7 else overlay.crash)(rng.choice(live))
            src = rng.choice(overlay.node_ids())
            keys = [rng.randrange(SIZE)] if how == "unicast" else random_keys(rng)
            deliveries = cast(sim, overlay, how, src, keys)
            assert_exactly_once_at_owners(overlay, keys, deliveries)
