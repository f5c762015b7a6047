"""Covering semantics: order laws, index surgery, store parity.

Three layers, all pinning the tentpole guarantee that collapsing
covered subscriptions is invisible to delivery:

1. hypothesis property tests for ``Subscription.covers`` — reflexive,
   transitive, antisymmetric up to predicate equality, and *exactly*
   the semantic relation (σ₁ covers σ₂ ⟺ every event matching σ₂
   matches σ₁, checked exhaustively over a small event space);
2. unit tests for :class:`~repro.matching.covering.CoveringIndex`
   surgery — collapse, root demotion, leaf splice, root-death
   promotion, and the counters the LoadMeter exports;
3. a hypothesis state machine driving a covering grid store and an
   uncollapsed brute store through random install / refresh / expire /
   unsubscribe / churn interleavings, asserting both match the exact
   same subscriber set at every step — while the grid store scans,
   across the install that builds its engine and forest at
   ``SCAN_LIMIT`` entries, and after it drains again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.events import EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SCAN_LIMIT, SubscriptionStore
from repro.core.subscriptions import Constraint, Subscription
from repro.matching.covering import CoveringIndex

SPACE = EventSpace.uniform(("a1", "a2"), 6)


def build(ranges):
    """Subscription from {attribute: (low, high)} over SPACE."""
    return Subscription(
        space=SPACE,
        constraints=tuple(
            Constraint(attribute=attribute, low=low, high=high)
            for attribute, (low, high) in sorted(ranges.items())
        ),
    )


@st.composite
def subscriptions(draw):
    """Random (possibly partial, possibly full-domain) subscriptions."""
    ranges = {}
    for attribute in range(SPACE.dimensions):
        if draw(st.booleans()):
            low = draw(st.integers(0, 5))
            high = draw(st.integers(low, 5))
            ranges[attribute] = (low, high)
    if not ranges:
        low = draw(st.integers(0, 5))
        ranges[0] = (low, draw(st.integers(low, 5)))
    return build(ranges)


def semantic_covers(a: Subscription, b: Subscription) -> bool:
    """Ground truth by exhaustion: every event in b is in a."""
    for v1 in range(6):
        for v2 in range(6):
            event = SPACE.make_event(a1=v1, a2=v2)
            if b.matches(event) and not a.matches(event):
                return False
    return True


class TestCoversLaws:
    @given(subscriptions())
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, sub):
        assert sub.covers(sub)

    @given(subscriptions(), subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @given(subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_up_to_equality(self, a, b):
        if a.covers(b) and b.covers(a):
            for attribute in range(SPACE.dimensions):
                ca = a.effective_constraint(attribute)
                cb = b.effective_constraint(attribute)
                assert (ca.low, ca.high) == (cb.low, cb.high)

    @given(subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_exactly_the_semantic_relation(self, a, b):
        # Interval containment per attribute is sound *and* complete
        # for conjunctions of non-empty ranges, so covers() must agree
        # with the exhaustive event-set definition in both directions
        # — including the fast-path rejection on attribute-set
        # mismatch and the full-domain-constraint-as-no-op cases.
        assert a.covers(b) == semantic_covers(a, b)

    def test_fast_path_attribute_mismatch(self):
        narrow = build({0: (2, 3)})
        other_attr = build({1: (2, 3)})
        assert not narrow.covers(other_attr)
        assert not other_attr.covers(narrow)

    def test_full_domain_constraint_is_no_op(self):
        everything = build({0: (0, 5)})
        partial = build({1: (1, 4)})
        assert everything.covers(partial)
        assert partial.covers(partial)


class TestCoveringIndexSurgery:
    def test_collapse_under_deepest_coverer(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        mid = build({0: (1, 4)})
        narrow = build({0: (2, 3)})
        assert index.add(wide) == (True, [])
        assert index.add(mid) == (False, [])
        assert index.add(narrow) == (False, [])
        assert index.root_count == 1
        assert index.collapsed_count == 2
        assert index.collapsed_total == 2

    def test_new_root_demotes_covered_roots(self):
        index = CoveringIndex()
        a = build({0: (1, 2)})
        b = build({0: (3, 4)})
        index.add(a)
        index.add(b)
        wide = build({0: (0, 5)})
        became_root, demoted = index.add(wide)
        assert became_root
        assert sorted(demoted) == sorted(
            [a.subscription_id, b.subscription_id]
        )
        assert index.root_count == 1
        assert index.collapsed_total == 2

    def test_removing_leaf_splices_children_to_parent(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        mid = build({0: (1, 4)})
        narrow = build({0: (2, 3)})
        for sub in (wide, mid, narrow):
            index.add(sub)
        was_root, promoted = index.remove(mid.subscription_id)
        assert not was_root and promoted == []
        assert index.root_count == 1
        assert index.collapsed_count == 1
        # narrow now hangs directly under wide; removing wide promotes it.
        was_root, promoted = index.remove(wide.subscription_id)
        assert was_root
        assert [s.subscription_id for s in promoted] == [
            narrow.subscription_id
        ]
        assert index.promotions_total == 1
        assert index.is_root(narrow.subscription_id)

    def test_expand_prunes_failed_subtrees(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        left = build({0: (0, 2)})
        right = build({0: (3, 5)})
        leftmost = build({0: (0, 1)})
        for sub in (wide, left, right, leftmost):
            index.add(sub)
        event = SPACE.make_event(a1=4, a2=0)
        matched, tested, hit = index.expand([wide], event)
        assert set(matched) == {wide.subscription_id, right.subscription_id}
        # left fails and prunes leftmost without testing it.
        assert tested == 2
        assert hit == 1


def _payload(sub, ttl=None):
    return SubscribePayload(
        subscription=sub, subscriber=1, ttl=ttl, groups=((0,),)
    )


class CoveringParityMachine(RuleBasedStateMachine):
    """Covering grid store vs uncollapsed brute oracle, step for step."""

    def __init__(self):
        super().__init__()
        self.covering_store = SubscriptionStore(
            SPACE, matcher="grid", covering=True
        )
        self.oracle = SubscriptionStore(SPACE, matcher="brute", covering=False)
        self.now = 0.0
        self.payloads: list = []
        self.peak = 0  # most entries the covering store has held

    @rule(
        sub=subscriptions(),
        ttl=st.one_of(st.none(), st.floats(1.0, 20.0)),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=3),
    )
    def install(self, sub, ttl, keys):
        payload = _payload(sub, ttl)
        self.payloads.append(payload)
        self.covering_store.put(payload, set(keys), self.now)
        self.oracle.put(payload, set(keys), self.now)
        self.peak = max(self.peak, len(self.covering_store))

    @rule(
        subs=st.lists(subscriptions(), min_size=SCAN_LIMIT, max_size=SCAN_LIMIT),
        ttl=st.one_of(st.none(), st.floats(1.0, 20.0)),
    )
    def install_past_the_scan_limit(self, subs, ttl):
        for sub in subs:
            self.install(sub, ttl, {0})

    @rule(index=st.integers(0, 10**6), keys=st.sets(st.integers(0, 6), min_size=1, max_size=3))
    def refresh(self, index, keys):
        if not self.payloads:
            return
        payload = self.payloads[index % len(self.payloads)]
        self.covering_store.put(payload, set(keys), self.now)
        self.oracle.put(payload, set(keys), self.now)

    @rule(index=st.integers(0, 10**6))
    def unsubscribe(self, index):
        if not self.payloads:
            return
        sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
        assert self.covering_store.remove(sid) == self.oracle.remove(sid)

    @rule(
        index=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=2),
    )
    def churn_keys_away(self, index, keys):
        if not self.payloads:
            return
        sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
        self.covering_store.remove_keys(sid, set(keys))
        self.oracle.remove_keys(sid, set(keys))

    @rule(delta=st.floats(0.1, 10.0))
    def advance_clock(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        # Purge order differs between the stores internally (covering
        # may promote mid-purge); the *surviving* set must not.
        self.covering_store.purge_expired(self.now)
        self.oracle.purge_expired(self.now)

    @invariant()
    def matches_agree_everywhere(self):
        for v1 in (0, 2, 5):
            for v2 in (0, 3, 5):
                event = SPACE.make_event(a1=v1, a2=v2)
                got = sorted(
                    e.subscription.subscription_id
                    for e in self.covering_store.match(event, self.now)
                )
                expected = sorted(
                    e.subscription.subscription_id
                    for e in self.oracle.match(event, self.now)
                )
                assert got == expected, (v1, v2, got, expected)

    @invariant()
    def forest_partitions_the_store(self):
        index = self.covering_store.covering
        # The store builds its forest at SCAN_LIMIT entries and keeps it.
        assert (index is not None) == (self.peak >= SCAN_LIMIT)
        if index is not None:
            assert index.root_count + index.collapsed_count == len(
                self.covering_store
            )


TestCoveringParity = CoveringParityMachine.TestCase
TestCoveringParity.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
