"""The rendezvous subscription store: idempotence, expiry, restore."""

import random

import pytest

from repro.core.events import EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SCAN_LIMIT, SubscriptionStore
from repro.core.subscriptions import Subscription
from repro.matching import BruteForceMatcher, CoveringIndex
from repro.telemetry.load import MatchWork

SPACE = EventSpace.uniform(("a1", "a2"), 1000)


ENGINES = ("brute", "grid", "radix", "vector")


def make_payload(low=10, high=20, subscriber=7, ttl=None, attribute="a1"):
    sigma = Subscription.build(SPACE, **{attribute: (low, high)})
    return SubscribePayload(
        subscription=sigma,
        subscriber=subscriber,
        ttl=ttl,
        groups=((1, 2, 3),),
    )


def test_put_and_match():
    store = SubscriptionStore(SPACE)
    payload = make_payload(10, 20)
    store.put(payload, {1}, now=0.0)
    assert len(store) == 1
    matched = store.match(SPACE.make_event(a1=15, a2=0), now=1.0)
    assert [e.subscriber for e in matched] == [7]
    assert store.match(SPACE.make_event(a1=25, a2=0), now=1.0) == []


def test_put_is_idempotent_and_replaces_the_record():
    store = SubscriptionStore(SPACE)
    payload = make_payload()
    first = store.put(payload, {1}, now=0.0)
    second = store.put(payload, {2}, now=0.0)
    assert len(store) == 1
    assert store.get(payload.subscription.subscription_id) is second
    assert second is not first and second == first
    matched = store.match(SPACE.make_event(a1=15, a2=0), now=1.0)
    assert matched == [second]


def test_ttl_sets_expiry_and_refresh_restarts_clock():
    store = SubscriptionStore(SPACE)
    payload = make_payload(ttl=10.0)
    store.put(payload, {1}, now=0.0)
    entry = store.get(payload.subscription.subscription_id)
    assert entry.expire_at == 10.0
    store.put(payload, {1}, now=5.0)
    assert entry.expire_at == 10.0  # the record is frozen; the refresh replaced it
    assert store.get(payload.subscription.subscription_id).expire_at == 15.0


def test_expired_entries_not_matched_and_purged():
    store = SubscriptionStore(SPACE)
    payload = make_payload(10, 20, ttl=10.0)
    store.put(payload, {1}, now=0.0)
    event = SPACE.make_event(a1=15, a2=0)
    assert store.match(event, now=9.9)
    assert store.match(event, now=10.0) == []
    assert len(store) == 0  # purged on access


def test_purge_expired_bulk():
    store = SubscriptionStore(SPACE)
    for i in range(5):
        store.put(make_payload(ttl=float(i + 1)), {1}, now=0.0)
    store.put(make_payload(ttl=None), {1}, now=0.0)
    assert store.purge_expired(now=3.5) == 3
    assert store.live_count(now=100.0) == 1  # only the never-expiring one


def test_remove():
    store = SubscriptionStore(SPACE)
    payload = make_payload()
    store.put(payload, {1}, now=0.0)
    sid = payload.subscription.subscription_id
    assert store.remove(sid)
    assert not store.remove(sid)
    assert sid not in store


def test_snapshot_restore_roundtrip_preserves_expiry():
    # Replication and state transfer ship the stored record as it is.
    store = SubscriptionStore(SPACE)
    payload = make_payload(ttl=50.0)
    entry = store.put(payload, {4, 5}, now=10.0)
    other = SubscriptionStore(SPACE)
    restored = other.restore(entry)
    assert restored is entry
    assert other.get(payload.subscription.subscription_id) is entry
    assert restored.expire_at == 60.0
    assert restored.subscriber == 7
    # Restoring over a resident record replaces it, expiry included.
    later = store.put(payload, {4}, now=30.0)
    assert other.restore(later).expire_at == 80.0
    assert len(other) == 1


def test_grid_matcher_backend():
    store = SubscriptionStore(SPACE, matcher="grid")
    payload = make_payload(10, 20)
    store.put(payload, {1}, now=0.0)
    assert store.match(SPACE.make_event(a1=15, a2=0), now=0.0)


def test_unknown_matcher_rejected():
    with pytest.raises(ValueError):
        SubscriptionStore(SPACE, matcher="magic")


def counters(work):
    return (
        work.candidates,
        work.verified,
        work.matched,
        work.cover_roots,
        work.cover_collapsed,
        work.cover_promotions,
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_stats_attached_before_the_engine_exists(engine):
    # The load meter and the ledger attach at join, before any
    # subscription: the handle must reach the engine that the put
    # bringing the store to SCAN_LIMIT entries makes.  The fillers sit
    # on a2 points no event below hits and cover nothing on a1.
    early, late = SubscriptionStore(SPACE, engine), SubscriptionStore(SPACE, engine)
    early_work, late_work = MatchWork(0), MatchWork(0)
    early.attach_match_stats(early_work)
    assert early.match(SPACE.make_event(a1=15, a2=0), now=0.0) == []
    assert counters(early_work) == (0, 0, 0, 0, 0, 0)
    fillers = SCAN_LIMIT - 3
    payloads = [make_payload(0, 100), make_payload(10, 20), make_payload(15, 60)]
    payloads[1:1] = [
        make_payload(900 + i, 900 + i, attribute="a2") for i in range(fillers)
    ]
    for store in (early, late):
        for payload in payloads[:-1]:
            store.put(payload, {1}, now=0.0)
        assert store.covering is None
        store.put(payloads[-1], {1}, now=0.0)
        assert store._matcher is not None
    late.attach_match_stats(late_work)
    for value in (5, 15, 50, 500):
        event = SPACE.make_event(a1=value, a2=0)
        assert [e.subscription for e in early.match(event, now=0.0)] == [
            e.subscription for e in late.match(event, now=0.0)
        ]
    early.remove(payloads[0].subscription.subscription_id)
    late.remove(payloads[0].subscription.subscription_id)
    assert counters(early_work) == counters(late_work)
    assert early_work.verified == early_work.candidates
    assert early_work.matched == 1 + 3 + 2
    if engine == "brute":  # the oracle runs uncollapsed
        assert counters(early_work)[3:] == (0, 0, 0)
    else:
        assert early_work.cover_roots == early.covering.root_count == 2 + fillers
        assert early_work.cover_collapsed == 2
        assert early_work.cover_promotions == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_a_store_that_never_held_anything(engine):
    store = SubscriptionStore(SPACE, engine)
    assert store.match(SPACE.make_event(a1=15, a2=0), now=0.0) == []
    assert store.remove(123) is False
    assert store.purge_expired(now=5.0) == 0
    assert store.live_count(now=5.0) == 0
    assert len(store) == 0 and store.entries() == []
    # None of that made an engine or a covering index, and neither does
    # reading the index or installing below SCAN_LIMIT entries.
    assert store.covering is None
    for _ in range(SCAN_LIMIT - 1):
        store.put(make_payload(), {1}, now=0.0)
    assert store._matcher is None
    assert store.covering is None
    # The install that reaches the limit builds both from the entries
    # (equal predicates: the first covers the rest).
    store.put(make_payload(), {1}, now=0.0)
    assert len(store._matcher) == (SCAN_LIMIT if engine == "brute" else 1)
    index = store.covering
    if engine == "brute":
        assert index is None
    else:
        assert isinstance(index, CoveringIndex)
        assert index.root_count == 1
        assert index.collapsed_count == SCAN_LIMIT - 1


def random_payload(rng):
    """Ranges nested around a few centres, so covered pairs form; half
    carry a TTL."""
    ranges = {}
    for attribute in rng.sample(("a1", "a2"), rng.randint(1, 2)):
        centre = rng.randrange(100, 1000, 200)
        radius = rng.choice((5, 20, 60))
        ranges[attribute] = (centre - radius, centre + radius)
    return SubscribePayload(
        subscription=Subscription.build(SPACE, **ranges),
        subscriber=7,
        ttl=rng.choice((None, None, 2.0, 50.0)),
        groups=(),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_match_equals_brute_force_across_the_scan_limit(engine):
    rng = random.Random(f"scan-limit:{engine}")
    store = SubscriptionStore(SPACE, engine)
    work = MatchWork(0)
    store.attach_match_stats(work)
    live = {}  # sid -> (subscription, expire_at), as installed
    clock = [0.0]
    # Installed out of id order, as handoffs and restores arrive.
    pending = []

    def install():
        if not pending:
            pending.extend(random_payload(rng) for _ in range(2 * SCAN_LIMIT))
            rng.shuffle(pending)
        payload = pending.pop()
        store.put(payload, {1}, now=clock[0])
        ttl = payload.ttl
        live[payload.subscription.subscription_id] = (
            payload.subscription,
            None if ttl is None else clock[0] + ttl,
        )

    def check():
        now = clock[0]
        oracle = BruteForceMatcher()
        for subscription, expire_at in live.values():
            if expire_at is None or now < expire_at:
                oracle.add(subscription)
        for _ in range(8):
            event = SPACE.make_event(
                a1=rng.randrange(100, 1000, 200) + rng.randint(-60, 60),
                a2=rng.randrange(100, 1000, 200) + rng.randint(-60, 60),
            )
            expected = sorted(s.subscription_id for s in oracle.match(event))
            scanning = store._matcher is None
            resident, before = len(store), work.candidates
            got = [e.subscription.subscription_id for e in store.match(event, now)]
            assert got == expected
            assert work.verified == work.candidates
            if scanning:
                assert work.candidates - before == resident

    # Scan regime, with some entries expiring and dropped lazily.
    while len(store) < SCAN_LIMIT - 1:
        install()
        clock[0] += 0.25
        check()
    assert store._matcher is None and store.covering is None
    # The install that reaches the limit builds the engine; one more
    # goes through it.
    install()
    assert len(store) == SCAN_LIMIT and store._matcher is not None
    check()
    install()
    check()
    assert len(store) >= SCAN_LIMIT
    # Drain below the limit: the engine stays.
    matcher, covering = store._matcher, store.covering
    while len(store) >= SCAN_LIMIT - 3:
        sid = rng.choice([sid for sid in live if sid in store])
        assert store.remove(sid)
        del live[sid]
        clock[0] += 0.25
        check()
    store.purge_expired(clock[0])
    check()
    assert store._matcher is matcher and store.covering is covering
    if engine == "brute":
        assert covering is None
    else:
        assert covering.collapsed_total > 0
        assert work.cover_roots == covering.root_count
    assert work.matched > 0
