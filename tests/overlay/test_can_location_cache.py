"""CAN's location-cache policy: learned at delivery, read by unicast.

A ``CanNode`` stamps ``id, zone`` on every message it forwards, logs the
pair the request's origin stamped whenever a routed message is delivered
to it, and — when it is the node addressing the key: a unicast's sender,
the sequential walk's node picking its next key — sends straight to the
live cached node whose stamped zone covers the key, in front of an
untouched greedy ``_next_hop``.  A stamped zone can be stale; whatever a
node believes, delivery rests on the receiver's own ownership test, and
a node that merely forwards never asks its cache, so a stale zone costs
one forward.  Pinned here:

- the point of it: a reply to a request's origin takes one hop;
- staleness: a zone split by a join after it was learned, a crashed
  cached owner, two stale zones naming each other, and random churn
  under warm caches all deliver every key exactly once at its owner
  (the sequential walk, one step for every overlay, on Chord and Pastry
  too);
- scope: a hit is never the sender itself, m-cast does not read the
  cache — its message count is the cache-off count — and no CAN cache
  builds the distance-sorted view Chord searches.
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from tests.overlay.test_can_fastpath import brute_owner, churn
from tests.overlay.test_can_next_hop_reference import expected_branches
from tests.overlay.test_chord_owned_arcs import cast  # overlay-agnostic
from tests.overlay.test_location_cache import cached_ids

KS = KeySpace(13)


def build(n=60, seed=1, cache=128, overlay_cls=CanOverlay):
    """``n`` random ids on ``overlay_cls``; Pastry has no cache to size."""
    sim = Simulator()
    if overlay_cls is PastryOverlay:
        overlay = overlay_cls(sim, KS)
    else:
        overlay = overlay_cls(sim, KS, cache_capacity=cache)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def far_pair(overlay, how="unicast"):
    """Two nodes at least three hops apart, cache cold: by greedy unicast
    steps, or for ``how="mcast"`` by the hops a one-key m-cast takes."""
    ids = overlay.node_ids()
    for a in ids:
        for b in ids:
            if how == "mcast":
                far = mcast_hops(overlay, a, b) >= 3
            else:
                hop = overlay.node(a)._next_hop(b)
                far = hop not in (None, b) and overlay.node(hop)._next_hop(b) != b
            if far:
                return a, b
    raise AssertionError("ring too small")


def mcast_hops(overlay, source, key):
    """Hops of a one-key m-cast: each step is the one branch the
    brute-force partition over ``zone_table()`` and
    ``compute_express_links`` names."""
    hops, node_id = 0, source
    while overlay.owner_of(key) != node_id:
        ((_, node_id, _),) = expected_branches(overlay, node_id, frozenset([key]))
        hops += 1
    return hops


def test_a_reply_to_the_origin_of_a_delivered_request_takes_one_hop():
    sim, overlay = build()
    subscriber, rendezvous = far_pair(overlay, "mcast")
    ((_, request),) = cast(sim, overlay, "mcast", subscriber, {rendezvous})
    assert request.hops == mcast_hops(overlay, subscriber, rendezvous) >= 3
    # Every forward stamped id, zone; the origin's pair comes first.
    assert request.path[:2] == (subscriber, overlay.zone_of(subscriber))
    assert cached_ids(overlay.node(rendezvous)._cache) == [subscriber]
    ((node, reply),) = cast(sim, overlay, "unicast", rendezvous, {subscriber})
    assert (node, reply.hops) == (subscriber, 1)
    # With the cache off the same reply walks the greedy route.
    sim, cold = build(cache=0)
    cast(sim, cold, "mcast", subscriber, {rendezvous})
    ((node, reply),) = cast(sim, cold, "unicast", rendezvous, {subscriber})
    assert node == subscriber and reply.hops > 1


def test_only_the_origin_is_learned_and_only_at_delivery():
    sim, overlay = build()
    source, target = far_pair(overlay)
    ((_, message),) = cast(sim, overlay, "unicast", source, {target})
    forwarders = message.path[2::2]
    assert forwarders
    for node_id in forwarders:
        assert cached_ids(overlay.node(node_id)._cache) == []
    assert cached_ids(overlay.node(target)._cache) == [source]


def test_zone_split_by_a_join_after_it_was_learned_is_routed_on():
    sim, overlay = build()
    sender, owner = far_pair(overlay)
    cast(sim, overlay, "unicast", owner, {sender})  # sender learns owner's zone
    start, length = overlay.zone_of(owner)
    joiner = next(
        key for key in ((start + offset) % KS.size for offset in range(length))
        if key != owner
    )
    overlay.join(joiner)
    assert overlay.owner_of(joiner) == joiner  # inside the zone sender cached
    ((node, message),) = cast(sim, overlay, "unicast", sender, {joiner})
    assert node == joiner
    # The stale zone cost one forward: to the old owner, who routed on.
    assert message.path[:4:2] == (sender, owner)
    assert message.path[3] == overlay.zone_of(owner)  # and stamped it fresh


def test_crashed_cached_owner_is_forgotten_and_the_greedy_route_taken():
    sim, overlay = build()
    sender, owner = far_pair(overlay)
    cast(sim, overlay, "unicast", owner, {sender})
    assert cached_ids(overlay.node(sender)._cache) == [owner]
    greedy = overlay.node(sender)._next_hop(owner)
    overlay.crash(owner)
    heir = overlay.owner_of(owner)
    ((node, message),) = cast(sim, overlay, "unicast", sender, {owner})
    assert node == heir
    assert cached_ids(overlay.node(sender)._cache) == []
    if greedy != owner:
        assert message.path[2] == greedy


def test_two_stale_zones_naming_each_other_do_not_ping_pong():
    sim, overlay = build()
    first, second = far_pair(overlay)
    key = next(
        k for k in range(KS.size) if overlay.owner_of(k) not in (first, second)
    )
    everything = (0, KS.size)
    overlay.node(first)._cache.log += (second, everything)
    overlay.node(second)._cache.log += (first, everything)
    ((node, message),) = cast(sim, overlay, "unicast", first, {key})
    assert node == overlay.owner_of(key)
    # One forward on the stale zone; second did not address the key, so
    # it does not ask its cache and routes greedily.
    assert message.path[:4:2] == (first, second)
    assert first not in message.path[4::2]


def test_a_cached_hit_is_never_the_sender_itself():
    sim, overlay = build()
    sender, other = far_pair(overlay)
    node = overlay.node(sender)
    node._cache.log += (sender, (0, KS.size))  # a stale stamp of its own
    assert cached_ids(node._cache) == []
    ((at, message),) = cast(sim, overlay, "unicast", sender, {other})
    assert at == other and message.path[2] != sender


def ring_owner(overlay, key):
    """Oracle: the first live id clockwise from ``key`` (Chord, Pastry)."""
    return min(overlay.node_ids(), key=lambda node_id: (node_id - key) % KS.size)


# The walk is one step in the overlay base, so it is held to the same
# churn on every overlay; Chord's cache warms as CAN's does, Pastry has
# none.  Only CAN decides routes by cache in front of an untouched
# greedy step (its sender, the walk's picking node), so only it counts
# hits.
@pytest.mark.parametrize(
    "how, overlay_cls, owner_of",
    [
        pytest.param("unicast", CanOverlay, brute_owner, id="unicast"),
        pytest.param("sequential", CanOverlay, brute_owner, id="sequential"),
        pytest.param("sequential", ChordOverlay, ring_owner, id="sequential-chord"),
        pytest.param("sequential", PastryOverlay, ring_owner, id="sequential-pastry"),
    ],
)
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_warm_caches_under_churn_deliver_exactly_once_at_the_owner(
    how, overlay_cls, owner_of, seed
):
    rng = random.Random(f"{how}:{seed}")
    sim, overlay = build(n=50, seed=seed, cache=8, overlay_cls=overlay_cls)
    hits = 0
    for _ in range(12):
        churn(overlay, rng, 6)
        for _ in range(25):
            src = rng.choice(overlay.node_ids())
            if how == "unicast" or rng.random() < 0.5:
                # Addressed to a node's own id, as notifications are.
                keys = {rng.choice(overlay.node_ids())}
            else:
                keys = {rng.randrange(KS.size) for _ in range(rng.randint(2, 6))}
            deliveries = cast(sim, overlay, how, src, keys)
            owners = {owner_of(overlay, key) for key in keys}
            assert sorted(nid for nid, _ in deliveries) == sorted(owners)
            if overlay_cls is CanOverlay:
                hits += sum(  # one hop where the greedy step leads elsewhere
                    1 for nid, m in deliveries
                    if m.hops == 1 and overlay.node(src)._next_hop(nid) != nid
                )
    if overlay_cls is CanOverlay:
        assert hits > 0  # the cache did decide some routes


def test_mcast_does_not_read_the_cache():
    sims = [build(n=80, seed=5, cache=cache) for cache in (128, 0)]
    rng = random.Random(5)
    ids = sims[0][1].node_ids()
    for _ in range(300):  # warm: every node learns a few origins
        src, dst = rng.choice(ids), rng.choice(ids)
        for sim, overlay in sims:
            cast(sim, overlay, "unicast", src, {dst})
    warm, cold = (overlay.recorder.messages.total_sends() for _, overlay in sims)
    assert warm < cold  # the cache-on overlay did route by it
    for _ in range(40):
        src = rng.choice(ids)
        keys = {rng.randrange(KS.size) for _ in range(rng.randint(1, 30))}
        on, off = (
            sorted(
                (nid, m.hops, m.path[::2])
                for nid, m in cast(sim, overlay, "mcast", src, keys)
            )
            for sim, overlay in sims
        )
        assert on == off
    after = [overlay.recorder.messages.total_sends() for _, overlay in sims]
    assert after[0] - warm == after[1] - cold


def test_a_can_cache_never_builds_a_view():
    """CAN asks its cache by zone (``covering``), never by distance: after
    unicast, m-cast and sequential traffic under churn, with warm caches,
    no node's cache holds a view."""
    rng = random.Random(7)
    sim, overlay = build(n=60, seed=7, cache=8)
    for _ in range(6):
        churn(overlay, rng, 4)
        for how in ("unicast", "mcast", "sequential"):
            for _ in range(20):
                src = rng.choice(overlay.node_ids())
                if how == "unicast":
                    keys = {rng.choice(overlay.node_ids())}
                else:
                    keys = {rng.randrange(KS.size) for _ in range(4)}
                cast(sim, overlay, how, src, keys)
    caches = [overlay.node(node_id)._cache for node_id in overlay.node_ids()]
    assert sum(len(cached_ids(cache)) for cache in caches) > len(caches)
    for cache in caches:
        assert cache.journal is None and cache.ids == cache.dists == ()
