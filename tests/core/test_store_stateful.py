"""Model-based (stateful) testing of the rendezvous subscription store.

Hypothesis drives random interleavings of put / refresh / remove /
remove_keys / purge / clock-advance against a simple reference model
and checks the store agrees after every step — the kind of interleaving
bugs (expiry vs refresh vs partial key removal) example-based tests
miss.  A work handle is attached before the first put, as the load
meter does at join, and must count every match the store's scan, its
engine (made by the put that brings it to ``SCAN_LIMIT`` entries) and
the covering descent perform.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.events import EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SCAN_LIMIT, SubscriptionStore
from repro.core.subscriptions import Subscription
from repro.telemetry.load import MatchWork

SPACE = EventSpace.uniform(("a1",), 1000)


def make_payload(low, high, ttl):
    return SubscribePayload(
        subscription=Subscription.build(SPACE, a1=(low, high)),
        subscriber=1,
        ttl=ttl,
        groups=((0,),),
    )


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = SubscriptionStore(SPACE, matcher="grid")
        self.work = MatchWork(0)
        self.store.attach_match_stats(self.work)
        self.now = 0.0
        # Model: sid -> (payload, keys, expire_at or None)
        self.model: dict[int, tuple] = {}
        self.payloads: list = []
        self.peak = 0  # most entries the store has held

    def _sync_expiry(self):
        """Purge both sides at the same instant.

        The store purges expired entries *lazily* (on match/access);
        the model must not be allowed to drift ahead or behind, so
        every rule synchronizes explicitly before acting.
        """
        self.store.purge_expired(self.now)
        self._expire_model()

    @rule(
        low=st.integers(0, 900),
        span=st.integers(0, 99),
        ttl=st.one_of(st.none(), st.floats(1.0, 50.0)),
        keys=st.sets(st.integers(0, 20), min_size=1, max_size=4),
    )
    def put_new(self, low, span, ttl, keys):
        self._sync_expiry()
        payload = make_payload(low, low + span, ttl)
        self.payloads.append(payload)
        self.store.put(payload, set(keys), self.now)
        expire_at = None if ttl is None else self.now + ttl
        self.model[payload.subscription.subscription_id] = (
            payload, set(keys), expire_at,
        )
        self.peak = max(self.peak, len(self.store))

    @rule(
        lows=st.lists(
            st.integers(0, 900), min_size=SCAN_LIMIT, max_size=SCAN_LIMIT
        ),
        ttl=st.one_of(st.none(), st.floats(1.0, 50.0)),
    )
    def put_past_the_scan_limit(self, lows, ttl):
        for low in lows:
            self.put_new(low, 50, ttl, {0})

    @rule(
        index=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 20), min_size=1, max_size=4),
    )
    def refresh_existing(self, index, keys):
        self._sync_expiry()
        if not self.payloads:
            return
        payload = self.payloads[index % len(self.payloads)]
        sid = payload.subscription.subscription_id
        self.store.put(payload, set(keys), self.now)
        expire_at = None if payload.ttl is None else self.now + payload.ttl
        if sid in self.model:
            _, old_keys, _ = self.model[sid]
            self.model[sid] = (payload, old_keys | set(keys), expire_at)
        else:
            self.model[sid] = (payload, set(keys), expire_at)

    @rule(index=st.integers(0, 10**6))
    def remove_existing(self, index):
        self._sync_expiry()
        if not self.payloads:
            return
        payload = self.payloads[index % len(self.payloads)]
        sid = payload.subscription.subscription_id
        removed = self.store.remove(sid)
        assert removed == (sid in self.model)
        self.model.pop(sid, None)

    @rule(
        index=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 20), min_size=1, max_size=3),
    )
    def remove_keys(self, index, keys):
        self._sync_expiry()
        if not self.payloads:
            return
        payload = self.payloads[index % len(self.payloads)]
        sid = payload.subscription.subscription_id
        self.store.remove_keys(sid, set(keys))
        if sid in self.model:
            entry_payload, model_keys, expire_at = self.model[sid]
            model_keys -= set(keys)
            if not model_keys:
                del self.model[sid]
            else:
                self.model[sid] = (entry_payload, model_keys, expire_at)

    @rule(delta=st.floats(0.1, 30.0))
    def advance_clock(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        self.store.purge_expired(self.now)
        self._expire_model()

    def _expire_model(self):
        for sid in [
            s for s, (_, _, exp) in self.model.items()
            if exp is not None and self.now >= exp
        ]:
            del self.model[sid]

    def _live_model(self):
        return {
            sid: entry
            for sid, entry in self.model.items()
            if entry[2] is None or self.now < entry[2]
        }

    @invariant()
    def matching_agrees_with_model(self):
        live = self._live_model()
        for value in (0, 250, 500, 750, 999):
            event = SPACE.make_event(a1=value)
            # Expired entries not yet purged still match, then go.
            resident = sum(
                e.subscription.matches(event) for e in self.store.entries()
            )
            before = self.work.matched
            got = {
                e.subscription.subscription_id
                for e in self.store.match(event, self.now)
            }
            expected = {
                sid
                for sid, (payload, _, _) in live.items()
                if payload.subscription.matches(event)
            }
            assert got == expected, (value, got, expected)
            assert self.work.matched - before == resident

    @invariant()
    def cover_gauges_agree(self):
        # The store builds its engine and forest at SCAN_LIMIT entries
        # and keeps them; until then the gauges stay zero.
        covering = self.store.covering
        assert (covering is not None) == (self.peak >= SCAN_LIMIT)
        roots = 0 if covering is None else covering.root_count
        assert self.work.cover_roots == roots
        assert self.work.verified == self.work.candidates >= self.work.matched

    @invariant()
    def key_sets_agree(self):
        live = self._live_model()
        for sid, (_, keys, _) in live.items():
            entry = self.store.get(sid)
            assert entry is not None
            assert entry.keys_here == keys


TestStoreStateful = StoreMachine.TestCase
TestStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
