"""The in-place covering scans build the forest the public relation defines.

``CoveringIndex.add`` and ``expand`` compare compiled rows inside their
own loops instead of calling ``Subscription.covers`` / ``matches`` per
scanned root.  The reference forest below makes exactly those public
calls; seeded add / remove / expire / match sequences must leave both in
the same state after every step — roots in the same order, the same
parent map, the same return values — and a ``SubscriptionStore`` on each
indexed engine must match the same subscriptions with the same
``MatchWork`` counts.  Each sequence opens with ``SCAN_LIMIT`` installs,
so the forest the store builds from its entries at the last of them is
the reference's from then on.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import Event, EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SCAN_LIMIT, SubscriptionStore
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import DataModelError
from repro.matching import (
    BruteForceMatcher,
    CoveringIndex,
    GridIndexMatcher,
    RadixBitmapMatcher,
    make_vector_matcher,
)
from repro.telemetry.load import MatchWork

DOMAIN = 64
SPACE = EventSpace.uniform(("a1", "a2", "a3"), DOMAIN)
ENGINES = {
    "grid": GridIndexMatcher,
    "radix": RadixBitmapMatcher,
    "vector": make_vector_matcher,
}


class ReferenceForest:
    """``CoveringIndex`` written with public ``covers`` / ``matches``."""

    def __init__(self) -> None:
        self.subs: dict[int, Subscription] = {}
        self.roots: list[int] = []
        self.parent: dict[int, int] = {}
        self.children: dict[int, list[int]] = {}

    def add(self, subscription):
        sid = subscription.subscription_id
        parent = next(
            (r for r in self.roots if self.subs[r].covers(subscription)), None
        )
        if parent is not None:
            while True:
                deeper = next(
                    (
                        c
                        for c in self.children.get(parent, [])
                        if self.subs[c].covers(subscription)
                    ),
                    None,
                )
                if deeper is None:
                    break
                parent = deeper
            self.subs[sid] = subscription
            self.parent[sid] = parent
            self.children.setdefault(parent, []).append(sid)
            return False, []
        demoted = [r for r in self.roots if subscription.covers(self.subs[r])]
        for root in demoted:
            self.roots.remove(root)
            self.parent[root] = sid
            self.children.setdefault(sid, []).append(root)
        self.subs[sid] = subscription
        self.roots.append(sid)
        return True, demoted

    def remove(self, sid):
        del self.subs[sid]
        kids = self.children.pop(sid, [])
        if sid in self.roots:
            self.roots.remove(sid)
            for kid in kids:
                del self.parent[kid]
                self.roots.append(kid)
            return True, [self.subs[kid] for kid in kids]
        parent = self.parent.pop(sid)
        siblings = self.children[parent]
        siblings.remove(sid)
        for kid in kids:
            self.parent[kid] = parent
        siblings.extend(kids)
        if not siblings:
            del self.children[parent]
        return False, []

    def expand(self, event):
        """``(matched ids, descendants tested, descendants hit)``."""
        matched = [r for r in self.roots if self.subs[r].matches(event)]
        stack = [kid for r in matched for kid in self.children.get(r, [])]
        tested = hit = 0
        while stack:
            sid = stack.pop()
            tested += 1
            if self.subs[sid].matches(event):
                hit += 1
                matched.append(sid)
                stack.extend(self.children.get(sid, []))
        return matched, tested, hit


def random_subscription(rng: random.Random) -> Subscription:
    """Nested ranges on few attributes, so covering chains do form."""
    constraints = []
    for attribute in rng.sample(range(SPACE.dimensions), rng.randint(1, 2)):
        style = rng.random()
        if style < 0.15:
            low, high = 0, DOMAIN - 1  # full domain: a no-op for covering
        elif style < 0.3:
            low = high = rng.randrange(0, DOMAIN, 8)
        else:
            centre = rng.randrange(8, DOMAIN, 16)
            radius = rng.choice((1, 3, 7))
            low, high = centre - radius, min(DOMAIN - 1, centre + radius)
        constraints.append(Constraint(attribute, low, high))
    return Subscription(space=SPACE, constraints=tuple(constraints))


def random_event(rng: random.Random) -> Event:
    return Event(
        space=SPACE,
        values=tuple(rng.randrange(DOMAIN) for _ in range(SPACE.dimensions)),
    )


def engine_candidates(engine_name, roots, event):
    """Candidate count of a fresh engine holding exactly ``roots``."""
    engine = ENGINES[engine_name](SPACE)
    engine.work = MatchWork(0)
    for root in roots:
        engine.add(root)
    engine.match(event)
    assert engine.work.verified == engine.work.candidates
    return engine.work.candidates


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_store_follows_the_reference_forest(engine_name, seed):
    rng = random.Random(f"{seed}:{engine_name}")
    store = SubscriptionStore(SPACE, matcher=engine_name)
    work = MatchWork(0)
    store.attach_match_stats(work)
    index = CoveringIndex()  # bare twin of store.covering: shows the returns
    reference = ReferenceForest()
    expiry: dict[int, float | None] = {}  # live entries, in put order
    expected = MatchWork(0)
    now = 0.0

    def drop(sid):
        del expiry[sid]
        was_root, promoted = index.remove(sid)
        assert (was_root, promoted) == reference.remove(sid)

    def check_forest():
        forest = store.covering
        assert [r.subscription_id for r in forest.roots()] == reference.roots
        assert [r.subscription_id for r in index.roots()] == reference.roots
        assert forest._parent == index._parent == reference.parent
        assert forest._children == index._children == reference.children
        # The engine holds the roots and nothing else.
        assert len(store._matcher) == len(reference.roots)
        assert all(r in store._matcher for r in reference.roots)
        assert work.cover_roots == len(reference.roots)

    for step in range(SCAN_LIMIT + 400):
        now += rng.random()
        action = rng.random()
        if step < SCAN_LIMIT or action < 0.45 or not expiry:
            subscription = random_subscription(rng)
            ttl = rng.choice((None, 5.0, 20.0))
            store.put(
                SubscribePayload(
                    subscription=subscription, subscriber=1, ttl=ttl, groups=()
                ),
                keys={0},
                now=now,
            )
            expiry[subscription.subscription_id] = (
                None if ttl is None else now + ttl
            )
            assert index.add(subscription) == reference.add(subscription)
            if step < SCAN_LIMIT - 1:
                assert store.covering is None
                continue
        elif action < 0.6:
            sid = rng.choice(list(expiry))
            assert store.remove(sid)
            drop(sid)
        elif action < 0.65:
            doomed = [s for s, t in expiry.items() if t is not None and now >= t]
            assert store.purge_expired(now) == len(doomed)
            for sid in doomed:
                drop(sid)
        else:
            event = random_event(rng)
            roots = [reference.subs[r] for r in reference.roots]
            candidates = engine_candidates(engine_name, roots, event)
            matched, tested, hit = reference.expand(event)
            if reference.parent:
                hit_roots = [r for r in roots if r.matches(event)]
                assert index.expand(hit_roots, event) == (matched, tested, hit)
            expected.candidates += candidates + tested
            expected.verified += candidates + tested
            expected.matched += len(matched)
            matched.sort()
            doomed = [
                s for s in matched if expiry[s] is not None and now >= expiry[s]
            ]
            result = store.match(event, now)
            assert [e.subscription.subscription_id for e in result] == [
                s for s in matched if s not in doomed
            ]
            # Brute force over everything live agrees with the forest.
            assert matched == sorted(
                s for s, sub in reference.subs.items() if sub.matches(event)
            )
            for sid in doomed:
                drop(sid)
            assert (work.candidates, work.verified, work.matched) == (
                expected.candidates,
                expected.verified,
                expected.matched,
            )
        check_forest()
    assert reference.parent, "the sequence never collapsed a subscription"
    assert index.collapsed_total == store.covering.collapsed_total
    assert index.promotions_total == store.covering.promotions_total > 0


def put(store, subscription):
    store.put(
        SubscribePayload(subscription=subscription, subscriber=1, ttl=None, groups=()),
        keys={0},
        now=0.0,
    )


def test_foreign_space_still_raises():
    foreign = EventSpace.uniform(("b1", "b2", "b3"), DOMAIN)
    wide = Subscription.build(SPACE, a1=(0, 40))
    narrow = Subscription.build(SPACE, a1=(10, 20))
    stranger = Subscription.build(foreign, b1=(10, 20))
    event = Event(space=foreign, values=(15, 15, 15))

    # The single-call forms.
    with pytest.raises(DataModelError):
        wide.matches(event)
    with pytest.raises(DataModelError):
        wide.covers(stranger)

    # Engines that verify in Python check the event once per match()
    # (the numpy engine never looked at the event's space).
    for engine in (GridIndexMatcher(SPACE), RadixBitmapMatcher(SPACE), BruteForceMatcher()):
        engine.add(wide)
        with pytest.raises(DataModelError):
            engine.match(event)
    for engine in ENGINES.values():
        with pytest.raises(DataModelError):
            engine(SPACE).add(stranger)

    # The forest checks once per add() and once per expand().
    index = CoveringIndex()
    index.add(wide)
    index.add(narrow)
    with pytest.raises(DataModelError):
        index.expand([wide], event)
    with pytest.raises(DataModelError):
        index.add(stranger)
    # A refused subscription leaves no trace.
    assert len(index) == 2 and stranger.subscription_id not in index

    # Through the store, on every engine: the engine or the descent
    # into the covered subscription refuses the event.
    for engine_name in ENGINES:
        store = SubscriptionStore(SPACE, matcher=engine_name)
        put(store, wide)
        put(store, narrow)
        with pytest.raises(DataModelError):
            store.match(event, 0.0)
        with pytest.raises(DataModelError):
            put(store, stranger)
        # An equal space is not a foreign one (events unpickled in a
        # shard worker carry their own copy).
        twin = EventSpace.uniform(("a1", "a2", "a3"), DOMAIN)
        assert twin is not SPACE
        assert len(store.match(Event(space=twin, values=(15, 15, 15)), 0.0)) == 2
