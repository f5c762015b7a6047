"""``KeyRuns`` held to a frozenset reference.

A key set travels as sorted, disjoint ``(start, length)`` runs, flat.
Every operation the system reads it by — construction from keys and
from ranges, ``len``, clockwise iteration, membership, the split by an
owned span (one that wraps past 0, the whole ring), the run-wise
``isdisjoint`` and the m-cast step's per-branch cut — must agree with
the same operation on the frozenset of its keys, on small rings where
every key is checked.  Two runs compare as their flat tuples, so equal
key sets must give one flat form.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.api import (
    MessageKind,
    OverlayMessage,
    OverlayNetwork,
    OverlayNode,
    RoutingMode,
)
from repro.overlay.ids import KeyRuns

SIZES = st.sampled_from([8, 64, 256])


@st.composite
def ring_and_keys(draw, sizes=SIZES):
    """A ring size and a key set drawn as keys, ranges (some across 0)
    or both."""
    size = draw(sizes)
    keys = set(draw(st.sets(st.integers(0, size - 1), max_size=12)))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, size - 1))
        length = draw(st.integers(1, size))
        keys.update((start + i) % size for i in range(length))
    return size, frozenset(keys)


def assert_canonical(runs: KeyRuns, size: int) -> None:
    """Ascending, non-wrapping, non-touching runs of at least one key."""
    starts, lengths = runs[::2], runs[1::2]
    assert len(starts) == len(lengths)
    stop = -1
    for start, length in zip(starts, lengths):
        assert length >= 1
        assert start > stop  # a gap of at least one key
        stop = start + length
        assert stop <= size


@settings(max_examples=200, deadline=None)
@given(ring_and_keys())
def test_runs_from_keys_are_the_key_set(drawn):
    size, keys = drawn
    runs = KeyRuns.from_keys(keys)
    assert_canonical(runs, size)
    assert len(runs) == len(keys)
    assert list(runs) == sorted(keys)  # clockwise from 0
    assert all((key in runs) == (key in keys) for key in range(-1, size + 1))
    assert set(runs) == keys
    assert KeyRuns.from_keys(list(keys) + list(keys)) == runs  # duplicates
    assert KeyRuns.from_keys(keys | {size}) != runs


@settings(max_examples=200, deadline=None)
@given(SIZES.flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(1, size)), max_size=5
        ),
    )
))
def test_runs_from_ranges_are_their_union(drawn):
    """A range across 0 is two runs (the whole ring, one); the union of
    several ranges' runs is the union of their keys."""
    size, ranges = drawn
    groups, keys = [], set()
    for start, length in ranges:
        if length == size:
            groups.append(KeyRuns((0, size)))
        elif start + length > size:
            groups.append(KeyRuns((0, start + length - size, start, size - start)))
        else:
            groups.append(KeyRuns((start, length)))
        keys.update((start + i) % size for i in range(length))
        assert set(groups[-1]) == {(start + i) % size for i in range(length)}
    union = KeyRuns.union(groups)
    assert_canonical(union, size)
    assert set(union) == keys
    assert union == KeyRuns.from_keys(keys)  # one flat form


@settings(max_examples=300, deadline=None)
@given(ring_and_keys(), st.data())
def test_split_by_a_span_is_the_keys_inside_and_the_rest(drawn, data):
    size, keys = drawn
    start = data.draw(st.integers(0, size - 1))
    length = data.draw(st.sampled_from([1, size - start, size]) | st.integers(1, size))
    span = {(start + i) % size for i in range(length)}
    runs = KeyRuns.from_keys(keys)
    inside, outside = runs.split(start, length, size)
    assert_canonical(inside, size)
    assert_canonical(outside, size)
    assert set(inside) == keys & span
    assert set(outside) == keys - span
    assert runs.meets(start, length, size) == bool(keys & span)


@settings(max_examples=300, deadline=None)
@given(ring_and_keys(), st.data())
def test_isdisjoint_walks_the_runs_as_the_key_sets_meet(drawn, data):
    """Against a second drawn set on the same ring, against the keys
    not in the set (disjoint, touching it at every run end, across 0
    too) and against those plus one of its own keys (not disjoint)."""
    size, keys = drawn
    _, others = data.draw(ring_and_keys(st.just(size)))
    runs, other_runs = KeyRuns.from_keys(keys), KeyRuns.from_keys(others)
    assert runs.isdisjoint(other_runs) == keys.isdisjoint(others)
    assert other_runs.isdisjoint(runs) == keys.isdisjoint(others)
    rest = set(range(size)) - keys
    assert runs.isdisjoint(KeyRuns.from_keys(rest))
    assert KeyRuns.from_keys(rest).isdisjoint(runs)
    if keys:
        mixed = KeyRuns.from_keys(rest | {data.draw(st.sampled_from(sorted(keys)))})
        assert not runs.isdisjoint(mixed)
        assert not mixed.isdisjoint(runs)


class CutOverlay:
    """What the m-cast step reads of its overlay: the ring size, the
    envelope copier, the one-hop send and the delivery upcall."""

    _prepared = OverlayNetwork._prepared

    def __init__(self, size: int) -> None:
        self._key_limit = size
        self.sent: list[tuple[int, KeyRuns]] = []
        self.delivered = 0

    def _network_transmit(self, src, dst, message) -> None:
        self.sent.append((dst, message.target_keys))

    def do_deliver(self, node, message) -> None:
        self.delivered += 1


class CutNode(OverlayNode):
    """A node whose rule hands back a drawn ``(lo, hi, branches)``."""

    def mcast_pointers(self, message, runs, arcs):
        size = self._overlay._key_limit
        assert runs[-2:] == [size, 2 * size]  # the sentinel run
        return None, self.lo, self.hi, self.branches


@settings(max_examples=300, deadline=None)
@given(ring_and_keys(), st.data())
def test_the_step_cuts_each_branch_out_of_the_runs(drawn, data):
    """Keys at distances below ``lo`` or from ``hi`` on are this node's;
    each branch gets the keys from its first distance to the next
    branch's, back in clockwise runs, farthest branch first."""
    size, keys = drawn
    if not keys:
        return
    me = data.draw(st.integers(0, size - 1))
    # A ring node's own keys: distance 0 and those past its predecessor.
    lo = data.draw(st.just(1) | st.integers(0, size))
    hi = data.draw(st.just(size) | st.integers(lo, size))
    distances = sorted((key - me) % size for key in keys)
    forwarded = [d for d in distances if lo <= d < hi]
    overlay = CutOverlay(size)
    node = CutNode(me, overlay)
    node.lo, node.hi, node.branches = lo, hi, {}
    if forwarded:
        firsts = sorted(
            data.draw(st.sets(st.sampled_from(forwarded[1:]), max_size=4))
            if len(forwarded) > 1 else []
        )
        firsts = [forwarded[0], *firsts]
        node.branches = {1000 + i: first for i, first in enumerate(firsts)}
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION, payload=None, request_id=1, origin=me,
        target_keys=KeyRuns.from_keys(keys), mode=RoutingMode.MCAST,
    )
    node.continue_mcast(message)
    assert overlay.delivered == (len(forwarded) < len(distances))
    expected = []
    ends = [*node.branches.values()][1:] + [hi]
    for (pointer, first), end in zip(node.branches.items(), ends):
        branch = {(me + d) % size for d in distances if first <= d < end}
        expected.append((pointer, branch))
    sent = [pointer for pointer, _ in overlay.sent]
    assert sent == [pointer for pointer, _ in reversed(expected)]
    for (_, runs), (_, branch) in zip(overlay.sent, reversed(expected)):
        assert_canonical(runs, size)
        assert set(runs) == branch


def test_a_run_that_ends_at_the_node_is_not_the_nodes():
    """Keys 2..4 end right before node 5: all at distances 5..7, none
    the node's own, so it forwards them whole and delivers nothing."""
    overlay = CutOverlay(8)
    node = CutNode(5, overlay)
    node.lo, node.hi, node.branches = 1, 8, {1000: 5}
    targets = KeyRuns((2, 3))
    node.continue_mcast(
        OverlayMessage(
            kind=MessageKind.SUBSCRIPTION, payload=None, request_id=1, origin=5,
            target_keys=targets, mode=RoutingMode.MCAST,
        )
    )
    assert overlay.delivered == 0
    assert overlay.sent == [(1000, targets)]
