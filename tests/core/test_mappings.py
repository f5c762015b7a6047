"""The three ak-mappings: Fig. 3 examples, cardinality analysis,
and the mapping intersection rule as a property over random pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import Event, EventSpace
from repro.core.mappings import (
    AttributeSplitMapping,
    KeySpaceSplitMapping,
    SelectiveAttributeMapping,
    make_mapping,
)
from repro.core.mappings.base import Discretization
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeySpace

# The paper's Fig. 3 example: 2 attributes, |Omega| = 8, m = 4.
FIG3_SPACE = EventSpace.uniform(("a1", "a2"), 8)
FIG3_KS = KeySpace(4)
FIG3_SIGMA = Subscription.build(FIG3_SPACE, a1=(0, 1), a2=(4, 6))
FIG3_EVENT = FIG3_SPACE.make_event(a1=1, a2=6)


def test_factory_names():
    space, ks = FIG3_SPACE, FIG3_KS
    assert isinstance(
        make_mapping("attribute-split", space, ks), AttributeSplitMapping
    )
    assert isinstance(
        make_mapping("keyspace-split", space, ks), KeySpaceSplitMapping
    )
    assert isinstance(
        make_mapping("selective-attribute", space, ks), SelectiveAttributeMapping
    )
    with pytest.raises(ValueError):
        make_mapping("nope", space, ks)


# -- Fig. 3 worked example ---------------------------------------------------

def test_fig3_keyspace_split_matches_paper_exactly():
    """The paper works Mapping 2 through: SK = {0010, 0011}, EK = 0011."""
    mapping = KeySpaceSplitMapping(FIG3_SPACE, FIG3_KS)
    assert mapping.bits_per_attribute == 2
    assert sorted(mapping.subscription_keys(FIG3_SIGMA)) == [0b0010, 0b0011]
    assert set(mapping.event_keys(FIG3_EVENT)) == {0b0011}


def test_fig3_attribute_split_scaling_hash():
    """With the paper's scaling hash h(x) = x*2^l/|Omega|, l = m = 4:
    H(a1 in [0,1]) = {h(0), h(1)} = {0, 2} and
    H(a2 in [4,6]) = {h(4), h(5), h(6)} = {8, 10, 12} (per-value images,
    exactly the structure of Fig. 3(b))."""
    mapping = AttributeSplitMapping(FIG3_SPACE, FIG3_KS)
    groups = mapping.subscription_key_groups(FIG3_SIGMA)
    assert [sorted(group) for group in groups] == [[0, 2], [8, 10, 12]]
    assert set(mapping.event_keys(FIG3_EVENT)) == {2}  # h(1) = 2


def test_fig3_selective_attribute():
    mapping = SelectiveAttributeMapping(FIG3_SPACE, FIG3_KS)
    # a1 spans 2/8, a2 spans 3/8: a1 is the most selective.
    assert sorted(mapping.subscription_keys(FIG3_SIGMA)) == [0, 2]
    # EK maps by every attribute: h(1) = 2 and h(6) = 12.
    assert set(mapping.event_keys(FIG3_EVENT)) == {2, 12}


def test_fig3_intersection_rule_all_mappings():
    for name in ("attribute-split", "keyspace-split", "selective-attribute"):
        mapping = make_mapping(name, FIG3_SPACE, FIG3_KS)
        assert mapping.check_intersection_rule(FIG3_EVENT, FIG3_SIGMA)


# -- cardinality analysis (Section 4.2 / 5.2) --------------------------------

PAPER_SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)
PAPER_KS = KeySpace(13)


def paper_subscription(spans=(30000, 30000, 30000, 30000), starts=None):
    starts = starts or (0, 100_000, 200_000, 300_000)
    constraints = tuple(
        Constraint(attribute=i, low=start, high=start + span - 1)
        for i, (start, span) in enumerate(zip(starts, spans))
    )
    return Subscription(space=PAPER_SPACE, constraints=constraints)


def test_attribute_split_key_count_formula():
    """|SK| ~ sum_i ceil(r_i * 2^m / |Omega_i|)."""
    mapping = AttributeSplitMapping(PAPER_SPACE, PAPER_KS)
    sigma = paper_subscription()
    keys = mapping.subscription_keys(sigma)
    expected = sum((30000 * (1 << 13)) // 1_000_001 + 1 for _ in range(4))
    assert abs(len(keys) - expected) <= 4


def test_event_key_counts_per_mapping():
    event = PAPER_SPACE.make_event(a1=10, a2=500_000, a3=999_999, a4=123_456)
    assert len(AttributeSplitMapping(PAPER_SPACE, PAPER_KS).event_keys(event)) == 1
    assert len(KeySpaceSplitMapping(PAPER_SPACE, PAPER_KS).event_keys(event)) == 1
    # Mapping 3: one key per attribute (d = 4), modulo hash collisions.
    sa_keys = SelectiveAttributeMapping(PAPER_SPACE, PAPER_KS).event_keys(event)
    assert 1 <= len(sa_keys) <= 4


def test_selective_attribute_uses_min_selectivity():
    mapping = SelectiveAttributeMapping(PAPER_SPACE, PAPER_KS)
    sigma = paper_subscription(spans=(30000, 900, 30000, 30000))
    groups = mapping.subscription_key_groups(sigma)
    assert len(groups) == 1
    # 900-value range maps to about 900 * 8192 / 1e6 ~ 7 keys.
    assert 1 <= len(groups[0]) <= 9


def test_keyspace_split_slightly_over_one_key():
    """Section 5.2: under the paper's workload each subscription maps
    to 'slightly over one' key in Mapping 2."""
    mapping = KeySpaceSplitMapping(PAPER_SPACE, PAPER_KS)
    assert mapping.bits_per_attribute == 3
    sigma = paper_subscription()  # 3% ranges
    keys = mapping.subscription_keys(sigma)
    assert 1 <= len(keys) <= 4


def test_keyspace_split_keys_spread_with_shift():
    """Concatenations occupy the top bits: d*l = 12 of m = 13, so all
    keys are even — spread over the whole ring rather than packed into
    its bottom half."""
    mapping = KeySpaceSplitMapping(PAPER_SPACE, PAPER_KS)
    event = PAPER_SPACE.make_event(a1=999_999, a2=999_999, a3=999_999, a4=999_999)
    (key,) = mapping.event_keys(event)
    assert key % 2 == 0
    assert key >= PAPER_KS.size // 2  # high attribute values land high


def test_keyspace_split_rejects_too_many_dimensions():
    wide = EventSpace.uniform(tuple(f"a{i}" for i in range(20)), 100)
    with pytest.raises(MappingError):
        KeySpaceSplitMapping(wide, KeySpace(13))


def test_selective_attribute_rejects_empty_subscription():
    mapping = SelectiveAttributeMapping(PAPER_SPACE, PAPER_KS)
    with pytest.raises(MappingError):
        mapping.subscription_key_groups(
            Subscription(space=PAPER_SPACE, constraints=())
        )


def test_partial_subscription_costs():
    """Section 4.2: Selective-Attribute is least sensitive to partially
    defined subscriptions; the others must cover unconstrained
    attributes in full."""
    sigma = Subscription.build(PAPER_SPACE, a1=(0, 899))
    sa = SelectiveAttributeMapping(PAPER_SPACE, PAPER_KS)
    as_ = AttributeSplitMapping(PAPER_SPACE, PAPER_KS)
    assert len(sa.subscription_keys(sigma)) < 20
    # Attribute-split: three full-domain attributes => nearly all keys.
    assert len(as_.subscription_keys(sigma)) > PAPER_KS.size // 2


def test_event_attribute_configurable_for_attribute_split():
    mapping = AttributeSplitMapping(PAPER_SPACE, PAPER_KS, event_attribute=2)
    event = PAPER_SPACE.make_event(a1=0, a2=0, a3=500_000, a4=0)
    (key,) = mapping.event_keys(event)
    assert key == (500_000 << 13) // 1_000_001
    with pytest.raises(MappingError):
        AttributeSplitMapping(PAPER_SPACE, PAPER_KS, event_attribute=7)


# -- the mapping intersection rule as a property ------------------------------

PROP_SPACE = EventSpace.uniform(("a1", "a2", "a3"), 1000)
PROP_KS = KeySpace(10)


@st.composite
def matching_pairs(draw):
    """A (subscription, event) pair with e in sigma by construction."""
    constraints = []
    values = []
    for attribute in range(3):
        constrained = draw(st.booleans())
        low = draw(st.integers(0, 999))
        high = draw(st.integers(low, min(999, low + draw(st.integers(0, 120)))))
        if constrained:
            constraints.append(Constraint(attribute=attribute, low=low, high=high))
            values.append(draw(st.integers(low, high)))
        else:
            values.append(draw(st.integers(0, 999)))
    if not constraints:
        constraints.append(Constraint(attribute=0, low=0, high=999))
    sigma = Subscription(space=PROP_SPACE, constraints=tuple(constraints))
    event = Event(space=PROP_SPACE, values=tuple(values))
    return sigma, event


@settings(max_examples=200, deadline=None)
@given(matching_pairs(), st.sampled_from(
    ["attribute-split", "keyspace-split", "selective-attribute"]
))
def test_property_intersection_rule(pair, name):
    sigma, event = pair
    mapping = make_mapping(name, PROP_SPACE, PROP_KS)
    assert sigma.matches(event)
    assert not mapping.event_keys(event).isdisjoint(mapping.subscription_keys(sigma))


@settings(max_examples=100, deadline=None)
@given(
    matching_pairs(),
    st.sampled_from(["attribute-split", "keyspace-split", "selective-attribute"]),
    st.integers(1, 50),
)
def test_property_intersection_rule_with_discretization(pair, name, width):
    """Section 4.3.3: discretization preserves the intersection rule for
    any interval width because events and ranges quantize identically."""
    sigma, event = pair
    mapping = make_mapping(
        name, PROP_SPACE, PROP_KS, discretization=Discretization.uniform(3, width)
    )
    assert not mapping.event_keys(event).isdisjoint(mapping.subscription_keys(sigma))


@settings(max_examples=100, deadline=None)
@given(matching_pairs())
def test_property_keys_within_keyspace(pair):
    sigma, event = pair
    for name in ("attribute-split", "keyspace-split", "selective-attribute"):
        mapping = make_mapping(name, PROP_SPACE, PROP_KS)
        for key in set(mapping.subscription_keys(sigma)) | set(mapping.event_keys(event)):
            assert 0 <= key < PROP_KS.size


@settings(max_examples=60, deadline=None)
@given(matching_pairs(), st.integers(2, 100))
def test_property_discretization_never_increases_keys(pair, width):
    sigma, _ = pair
    for name in ("attribute-split", "selective-attribute"):
        plain = make_mapping(name, PROP_SPACE, PROP_KS)
        coarse = make_mapping(
            name,
            PROP_SPACE,
            PROP_KS,
            discretization=Discretization.uniform(3, width),
        )
        assert len(coarse.subscription_keys(sigma)) <= len(
            plain.subscription_keys(sigma)
        )
