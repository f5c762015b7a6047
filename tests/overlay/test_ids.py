"""Unit + property tests for key-space / ring-interval arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.overlay.ids import KeySpace

KS = KeySpace(13)
keys = st.integers(min_value=0, max_value=KS.size - 1)


def test_size():
    assert KeySpace(13).size == 8192
    assert KeySpace(4).size == 16


def test_invalid_bits_rejected():
    with pytest.raises(ConfigurationError):
        KeySpace(0)
    with pytest.raises(ConfigurationError):
        KeySpace(200)


def test_contains_and_validate():
    ks = KeySpace(4)
    assert ks.contains(0) and ks.contains(15)
    assert not ks.contains(16) and not ks.contains(-1)
    assert ks.validate(7) == 7
    with pytest.raises(ConfigurationError):
        ks.validate(16)
    assert ks.validate(True) is True  # a bool is an int
    for not_int in (7.0, 7.5, "7", None):
        with pytest.raises(ConfigurationError, match="not an int"):
            ks.validate(not_int)


def test_wrap():
    ks = KeySpace(4)
    assert ks.wrap(16) == 0
    assert ks.wrap(-1) == 15
    assert ks.wrap(17) == 1


def test_hash_name_deterministic_and_in_range():
    ks = KeySpace(13)
    assert ks.hash_name("node-1") == ks.hash_name("node-1")
    assert ks.hash_name("node-1") != ks.hash_name("node-2")
    assert 0 <= ks.hash_name("anything") < ks.size


def test_distance_examples():
    ks = KeySpace(4)
    assert ks.distance(3, 5) == 2
    assert ks.distance(5, 3) == 14  # wraps around
    assert ks.distance(9, 9) == 0


def test_in_open_closed_examples():
    ks = KeySpace(4)
    assert ks.in_open_closed(5, 3, 7)
    assert ks.in_open_closed(7, 3, 7)  # right endpoint included
    assert not ks.in_open_closed(3, 3, 7)  # left endpoint excluded
    assert ks.in_open_closed(1, 14, 2)  # wrapping interval
    assert not ks.in_open_closed(10, 14, 2)
    assert ks.in_open_closed(9, 6, 6)  # degenerate = whole ring


def test_finger_start():
    ks = KeySpace(5)
    # Paper Fig. 1: finger 3 of node 8 starts at 8 + 2^2 = 12.
    assert ks.finger_start(8, 3) == 12
    assert ks.finger_start(30, 3) == (30 + 4) % 32
    with pytest.raises(ConfigurationError):
        ks.finger_start(0, 0)
    with pytest.raises(ConfigurationError):
        ks.finger_start(0, 6)


def test_keys_in_range_wrapping():
    ks = KeySpace(4)
    assert ks.keys_in_range(14, 1) == [14, 15, 0, 1]
    assert ks.keys_in_range(3, 3) == [3]


# -- properties ----------------------------------------------------------

@given(keys, keys)
def test_distance_antisymmetry(a, b):
    if a != b:
        assert KS.distance(a, b) + KS.distance(b, a) == KS.size
    else:
        assert KS.distance(a, b) == 0


@given(keys, keys, keys)
def test_open_closed_partition(key, left, right):
    """(left, right] and (right, left] partition the ring minus endpoints."""
    if left == right:
        return
    in_first = KS.in_open_closed(key, left, right)
    in_second = KS.in_open_closed(key, right, left)
    if key == left:
        assert not in_first and in_second
    elif key == right:
        assert in_first and not in_second
    else:
        assert in_first != in_second


@given(keys, keys, keys)
def test_interval_forms_consistent(key, left, right):
    oc = KS.in_open_closed(key, left, right)
    oo = KS.in_open_open(key, left, right)
    cc = KS.in_closed_closed(key, left, right)
    co = KS.in_closed_open(key, left, right)
    # Open-open is the most restrictive, closed-closed the least.
    assert not oo or oc
    assert not oc or cc
    assert not oo or co


@given(keys, keys)
def test_closed_closed_includes_endpoints(left, right):
    assert KS.in_closed_closed(left, left, right)
    assert KS.in_closed_closed(right, left, right)


@given(keys, keys)
def test_keys_in_range_matches_membership(left, right):
    span = KS.distance(left, right)
    if span > 64:
        return  # keep enumeration small
    enumerated = KS.keys_in_range(left, right)
    assert len(enumerated) == span + 1
    for key in enumerated:
        assert KS.in_closed_closed(key, left, right)
