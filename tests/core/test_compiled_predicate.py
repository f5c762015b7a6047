"""The compiled predicate equals the written-out semantics.

``Subscription`` compiles its constraints into flat bound rows at
construction and ``matches`` / ``covers`` (and every matching engine)
loop over those rows.  The reference here is the definition itself,
computed from ``constraints`` and the space alone: per-attribute
interval conjunction for ``matches``, per-attribute interval
containment for ``covers``, an unconstrained attribute standing for its
whole domain.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Attribute, Event, EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.subscriptions import Constraint, Subscription

SIZE = 7
SPACE = EventSpace(
    (
        Attribute("a1", SIZE),
        Attribute("a2", SIZE),
        Attribute("tag", SIZE, kind="string"),
    )
)


@st.composite
def constraint_on(draw, attribute):
    """Equality, full-domain, boundary-hugging or arbitrary range."""
    if SPACE.attributes[attribute].is_string:
        low = high = draw(st.integers(0, SIZE - 1))  # equality only
        return Constraint(attribute, low, high)
    style = draw(st.sampled_from(("equal", "full", "low-edge", "high-edge", "any")))
    if style == "equal":
        low = high = draw(st.integers(0, SIZE - 1))
    elif style == "full":
        low, high = 0, SIZE - 1
    elif style == "low-edge":
        low, high = 0, draw(st.integers(0, SIZE - 1))
    elif style == "high-edge":
        low, high = draw(st.integers(0, SIZE - 1)), SIZE - 1
    else:
        low = draw(st.integers(0, SIZE - 1))
        high = draw(st.integers(low, SIZE - 1))
    return Constraint(attribute, low, high)


@st.composite
def subscriptions(draw):
    """Any subset of the attributes (the empty one too), in any order."""
    chosen = draw(st.permutations(range(SPACE.dimensions)))
    chosen = chosen[: draw(st.integers(0, SPACE.dimensions))]
    return Subscription(
        space=SPACE,
        constraints=tuple(draw(constraint_on(a)) for a in chosen),
    )


events = st.tuples(*(st.integers(0, SIZE - 1),) * 3).map(
    lambda values: Event(space=SPACE, values=values)
)


def interval(subscription, attribute):
    """Effective [low, high] of one attribute, from the constraints."""
    for constraint in subscription.constraints:
        if constraint.attribute == attribute:
            return constraint.low, constraint.high
    return 0, SPACE.attributes[attribute].size - 1


def reference_matches(subscription, event):
    return all(
        low <= event.values[attribute] <= high
        for attribute in range(SPACE.dimensions)
        for low, high in (interval(subscription, attribute),)
    )


def reference_covers(a, b):
    for attribute in range(SPACE.dimensions):
        a_low, a_high = interval(a, attribute)
        b_low, b_high = interval(b, attribute)
        if b_low < a_low or b_high > a_high:
            return False
    return True


@given(subscriptions(), events)
@settings(max_examples=300, deadline=None)
def test_matches_is_the_interval_conjunction(subscription, event):
    assert subscription.matches(event) == reference_matches(subscription, event)


@given(subscriptions(), subscriptions())
@settings(max_examples=300, deadline=None)
def test_covers_is_interval_containment(a, b):
    assert a.covers(b) == reference_covers(a, b)
    assert b.covers(a) == reference_covers(b, a)


@given(subscriptions())
@settings(max_examples=100, deadline=None)
def test_compiled_views_follow_the_constraints(subscription):
    assert subscription.rows == tuple(
        (c.attribute, c.low, c.high) for c in subscription.constraints
    )
    proper = tuple(
        row for row in subscription.rows if (row[1], row[2]) != (0, SIZE - 1)
    )
    assert subscription.proper_rows == proper
    assert subscription.proper_mask == sum(1 << row[0] for row in proper)
    for attribute in range(SPACE.dimensions):
        assert (
            subscription.lows[attribute],
            subscription.highs[attribute],
        ) == interval(subscription, attribute)
    if len(proper) == len(subscription.rows):
        # All-proper subscriptions keep one tuple for both views.
        assert subscription.proper_rows is subscription.rows


@given(subscriptions(), events)
@settings(max_examples=100, deadline=None)
def test_pickle_round_trip(subscription, event):
    # Shard workers ship SubscribePayloads over pipes.
    payload = SubscribePayload(
        subscription=subscription, subscriber=3, groups=((1, 2),), ttl=5.0
    )
    shipped = pickle.loads(pickle.dumps(payload)).subscription
    assert shipped == subscription
    assert hash(shipped) == hash(subscription)
    for name in ("rows", "proper_rows", "proper_mask", "lows", "highs", "anchor"):
        assert getattr(shipped, name) == getattr(subscription, name)
    # The event crosses the pipe beside it, with an equal (not the
    # same) space object.
    shipped_event = pickle.loads(pickle.dumps(event))
    assert shipped.matches(shipped_event) == subscription.matches(event)
    assert shipped.covers(subscription) and subscription.covers(shipped)


def test_pickle_carries_only_the_defining_fields():
    subscription = Subscription.build(SPACE, a1=(1, 3), tag="news")
    stripped = (subscription.space, subscription.constraints, subscription.subscription_id)
    assert len(pickle.dumps(subscription)) < len(pickle.dumps(stripped)) + 100


def test_equality_hash_and_repr_ignore_the_compiled_form():
    one = Subscription.build(SPACE, a1=(1, 3), a2=(0, SIZE - 1))
    same = Subscription(
        space=one.space,
        constraints=one.constraints,
        subscription_id=one.subscription_id,
    )
    other_id = Subscription(space=one.space, constraints=one.constraints)
    assert one == same and hash(one) == hash(same)
    assert one != other_id
    # Same predicate, different constraint lists: still different
    # subscriptions, as before compilation existed.
    without_noop = Subscription(
        space=one.space,
        constraints=one.constraints[:1],
        subscription_id=one.subscription_id,
    )
    assert one.proper_rows == without_noop.proper_rows
    assert one != without_noop
    assert repr(one) == (
        f"Subscription(space={SPACE!r}, constraints={one.constraints!r}, "
        f"subscription_id={one.subscription_id})"
    )
