"""The event-space-partition baseline and the hotspot-adaptive wrapper."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import Event, EventSpace
from repro.core.mappings import (
    HotspotAdaptiveMapping,
    SelectiveAttributeMapping,
    make_mapping,
)
from repro.core.mappings.adaptive import SplitMode
from repro.core.mappings.base import Discretization
from repro.core.mappings.event_space_partition import EventSpacePartitionMapping
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns, KeySpace
from tests.overlay.test_key_runs import assert_canonical

SPACE = EventSpace.uniform(("a1", "a2", "a3"), 1000)
KS = KeySpace(10)


@st.composite
def matching_pairs(draw):
    constraints = []
    values = []
    for attribute in range(3):
        low = draw(st.integers(0, 999))
        high = draw(st.integers(low, min(999, low + 120)))
        constraints.append(Constraint(attribute=attribute, low=low, high=high))
        values.append(draw(st.integers(low, high)))
    return (
        Subscription(space=SPACE, constraints=tuple(constraints)),
        Event(space=SPACE, values=tuple(values)),
    )


# -- event-space partitioning ------------------------------------------------

def test_esp_event_maps_to_single_cell_key():
    mapping = EventSpacePartitionMapping(SPACE, KS, cells_per_dimension=8)
    event = SPACE.make_event(a1=5, a2=500, a3=999)
    assert len(mapping.event_keys(event)) == 1
    # Deterministic across calls.
    assert mapping.event_keys(event) == mapping.event_keys(event)


def test_esp_subscription_covers_overlapping_cells():
    mapping = EventSpacePartitionMapping(SPACE, KS, cells_per_dimension=10)
    # Cells are 100 wide: a range [50, 250] overlaps cells 0, 1, 2.
    sigma = Subscription.build(SPACE, a1=(50, 250), a2=(0, 99), a3=(0, 99))
    keys = mapping.subscription_keys(sigma)
    assert 1 <= len(keys) <= 3  # 3 cells, possibly colliding hashes


def test_esp_groups_are_singletons():
    """Hashed cells are scattered: no contiguous collecting ranges."""
    mapping = EventSpacePartitionMapping(SPACE, KS, cells_per_dimension=10)
    sigma = Subscription.build(SPACE, a1=(0, 500), a2=(0, 500), a3=(0, 500))
    for group in mapping.subscription_key_groups(sigma):
        assert len(group) == 1


def test_esp_validation():
    with pytest.raises(MappingError):
        EventSpacePartitionMapping(SPACE, KS, cells_per_dimension=0)
    with pytest.raises(MappingError):
        EventSpacePartitionMapping(
            SPACE, KS, discretization=Discretization.uniform(3, 5)
        )


def test_esp_factory():
    mapping = make_mapping("event-space-partition", SPACE, KS)
    assert isinstance(mapping, EventSpacePartitionMapping)


@settings(max_examples=150, deadline=None)
@given(matching_pairs(), st.integers(2, 20))
def test_property_esp_intersection_rule(pair, cells):
    sigma, event = pair
    mapping = EventSpacePartitionMapping(SPACE, KS, cells_per_dimension=cells)
    assert not mapping.event_keys(event).isdisjoint(mapping.subscription_keys(sigma))


# -- hotspot-adaptive wrapper -------------------------------------------------

def base_mapping():
    return SelectiveAttributeMapping(SPACE, KS)


def test_adaptive_identity_before_rebalance():
    base = base_mapping()
    adaptive = HotspotAdaptiveMapping(base)
    sigma = Subscription.build(SPACE, a1=(10, 20))
    event = SPACE.make_event(a1=15, a2=0, a3=0)
    assert adaptive.subscription_keys(sigma) == base.subscription_keys(sigma)
    assert adaptive.event_keys(event) == base.event_keys(event)
    assert adaptive.epoch == 0


def test_rebalance_splits_hot_keys():
    adaptive = HotspotAdaptiveMapping(base_mapping(), fan_out=4)
    split = adaptive.rebalance({42: 100, 7: 1}, hot_fraction=0.5)
    assert split == 1
    assert adaptive.epoch == 1
    assert 42 in adaptive.overrides
    assert 7 not in adaptive.overrides
    assert len(adaptive.siblings_of(42)) >= 2
    assert adaptive.siblings_of(7) == ()


def test_rebalance_is_incremental():
    adaptive = HotspotAdaptiveMapping(base_mapping())
    adaptive.rebalance({42: 100}, hot_fraction=1.0)
    # Already-split keys are not re-split; with nothing new, no epoch.
    assert adaptive.rebalance({42: 100}, hot_fraction=1.0) == 0
    assert adaptive.epoch == 1


def test_rebalance_validation():
    adaptive = HotspotAdaptiveMapping(base_mapping())
    with pytest.raises(MappingError):
        adaptive.rebalance({1: 1}, hot_fraction=0.0)
    with pytest.raises(MappingError):
        HotspotAdaptiveMapping(base_mapping(), fan_out=1)


def test_matching_split_spreads_event_load():
    adaptive = HotspotAdaptiveMapping(base_mapping(), fan_out=4)
    sigma = Subscription.build(SPACE, a1=(0, 0))  # everything on h(0) = key 0
    hot_key = next(iter(base_mapping().subscription_keys(sigma)))
    adaptive.rebalance({hot_key: 1000}, hot_fraction=1.0, mode=SplitMode.MATCHING)
    # Subscriptions go to ALL siblings under a matching split.
    assert set(adaptive.siblings_of(hot_key)) <= set(adaptive.subscription_keys(sigma))
    rng = random.Random(1)
    siblings = set(adaptive.siblings_of(hot_key))
    chosen = Counter()
    for _ in range(300):
        event = SPACE.make_event(a1=0, a2=rng.randrange(1000), a3=rng.randrange(1000))
        picked = set(adaptive.event_keys(event)) & siblings
        assert picked, "event lost its hot-key rendezvous"
        for key in picked:
            chosen[key] += 1
    # The hot key's matching load now spreads over several siblings.
    assert sum(1 for k in siblings if chosen.get(k, 0) > 0) >= 3


def test_storage_split_spreads_subscription_load():
    adaptive = HotspotAdaptiveMapping(base_mapping(), fan_out=4)
    hot_key = 0  # h(0) for equality subscriptions on value 0
    adaptive.rebalance({hot_key: 1000}, hot_fraction=1.0, mode=SplitMode.STORAGE)
    siblings = set(adaptive.siblings_of(hot_key))
    rng = random.Random(2)
    chosen = Counter()
    for _ in range(200):
        # Distinct subscriptions, all hashing to the same hot key.
        sigma = Subscription.build(
            SPACE, a1=(0, 0), a2=(rng.randrange(900), 999)
        )
        picked = set(adaptive.subscription_keys(sigma)) & siblings
        assert len(picked) == 1  # each subscription stored on ONE sibling
        chosen[next(iter(picked))] += 1
        # Events must visit every sibling to find them all.
        event = SPACE.make_event(a1=0, a2=950, a3=0)
        assert siblings <= set(adaptive.event_keys(event))
    assert sum(1 for k in siblings if chosen.get(k, 0) > 0) >= 3


def test_storage_split_choice_stable_for_same_content():
    adaptive = HotspotAdaptiveMapping(base_mapping(), fan_out=4)
    adaptive.rebalance({0: 10}, hot_fraction=1.0, mode=SplitMode.STORAGE)
    first = Subscription.build(SPACE, a1=(0, 0), a2=(5, 10))
    second = Subscription.build(SPACE, a1=(0, 0), a2=(5, 10))  # same content
    assert adaptive.subscription_keys(first) == adaptive.subscription_keys(second)


@settings(max_examples=150, deadline=None)
@given(
    matching_pairs(),
    st.integers(2, 6),
    st.sampled_from([SplitMode.STORAGE, SplitMode.MATCHING]),
)
def test_property_adaptive_preserves_intersection_rule(pair, fan_out, mode):
    sigma, event = pair
    adaptive = HotspotAdaptiveMapping(base_mapping(), fan_out=fan_out)
    # Split whatever keys this very pair uses — the adversarial case.
    base = adaptive.base
    for key in set(base.subscription_keys(sigma)) | set(base.event_keys(event)):
        adaptive.rebalance({key: 10}, hot_fraction=1.0, mode=mode)
    assert not adaptive.event_keys(event).isdisjoint(adaptive.subscription_keys(sigma))


@settings(max_examples=80, deadline=None)
@given(matching_pairs())
def test_property_adaptive_ek_deterministic(pair):
    _, event = pair
    adaptive = HotspotAdaptiveMapping(base_mapping())
    adaptive.rebalance({k: 5 for k in adaptive.base.event_keys(event)}, 1.0)
    assert adaptive.event_keys(event) == adaptive.event_keys(event)


# -- every mapping: EK(e) is canonical key runs --------------------------------

STATELESS = (
    "attribute-split", "keyspace-split", "selective-attribute", "event-space-partition",
)


@settings(max_examples=200, deadline=None)
@given(
    matching_pairs(),
    st.sampled_from(STATELESS + ("adaptive",)),
    st.sampled_from([SplitMode.STORAGE, SplitMode.MATCHING]),
)
def test_every_mapping_gives_event_keys_as_canonical_runs(pair, name, mode):
    """All five mappings return EK(e) as canonical ``KeyRuns`` (the
    adaptive wrapper with the pair's own keys split), and the
    intersection rule holds run-wise, through ``isdisjoint``."""
    sigma, event = pair
    if name == "adaptive":
        mapping = HotspotAdaptiveMapping(base_mapping(), fan_out=3)
        base = mapping.base
        for key in set(base.subscription_keys(sigma)) | set(base.event_keys(event)):
            mapping.rebalance({key: 10}, hot_fraction=1.0, mode=mode)
    else:
        mapping = make_mapping(name, SPACE, KS)
    keys = mapping.event_keys(event)
    assert keys.__class__ is KeyRuns
    assert_canonical(keys, KS.size)
    assert len(keys) >= 1
    assert not keys.isdisjoint(mapping.subscription_keys(sigma))
    assert mapping.check_intersection_rule(event, sigma)
