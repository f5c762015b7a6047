"""The m-cast primitive (Fig. 4): coverage, exactly-once, complexity."""

import math
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.overlay.api import MessageKind, OverlayMessage, RoutingMode, next_request_id
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(n=200, seed=1):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=0)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def make_message(src):
    return OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )


def run_mcast(overlay, sim, src, keys):
    deliveries = []
    overlay.set_deliver(lambda nid, m: deliveries.append((nid, m)))
    overlay.mcast(src, keys, make_message(src))
    sim.run()
    return deliveries


def test_covers_exactly_owner_set():
    sim, overlay = build()
    src = overlay.node_ids()[0]
    keys = [k % KS.size for k in range(700, 1400)]
    deliveries = run_mcast(overlay, sim, src, keys)
    expected = {overlay.owner_of(k) for k in keys}
    assert {nid for nid, _ in deliveries} == expected


def test_at_most_once_delivery_per_node():
    sim, overlay = build()
    src = overlay.node_ids()[5]
    keys = [k % KS.size for k in range(3000, 4200)]
    deliveries = run_mcast(overlay, sim, src, keys)
    counts = Counter(nid for nid, _ in deliveries)
    assert all(count == 1 for count in counts.values())


def test_single_key_mcast_is_a_route_to_owner():
    sim, overlay = build()
    src = overlay.node_ids()[0]
    deliveries = run_mcast(overlay, sim, src, [1234])
    assert [nid for nid, _ in deliveries] == [overlay.owner_of(1234)]


def test_local_keys_delivered_without_network():
    sim, overlay = build()
    src = overlay.node_ids()[0]
    deliveries = run_mcast(overlay, sim, src, [src])  # own id: always covered
    assert deliveries[0][0] == src
    assert deliveries[0][1].hops == 0


def test_empty_key_set_is_noop():
    sim, overlay = build()
    deliveries = run_mcast(overlay, sim, overlay.node_ids()[0], [])
    assert deliveries == []


def test_message_complexity_log_n_plus_range():
    """Fig. 4 analysis: O(log n + N_range) one-hop messages for a range."""
    sim, overlay = build(n=500, seed=2)
    overlay.set_deliver(lambda nid, m: None)
    src = overlay.node_ids()[0]
    keys = list(range(2000, 3500))
    message = make_message(src)
    overlay.mcast(src, keys, message)
    sim.run()
    nodes_in_range = len({overlay.owner_of(k) for k in keys})
    sends = overlay.recorder.messages.traces[message.request_id].one_hop_messages
    # Allow a small constant factor over the ideal bound: chain hops
    # through non-covering nodes occur between sparse fingers.
    bound = 3 * (nodes_in_range + math.log2(500))
    assert sends <= bound


def test_dilation_is_logarithmic():
    sim, overlay = build(n=500, seed=3)
    overlay.set_deliver(lambda nid, m: None)
    src = overlay.node_ids()[10]
    message = make_message(src)
    overlay.mcast(src, list(range(0, 8192, 8)), message)  # ring-wide
    sim.run()
    trace = overlay.recorder.messages.traces[message.request_id]
    assert trace.max_path_hops <= math.ceil(math.log2(500)) + 2


def test_branches_carry_disjoint_target_subsets():
    sim, overlay = build(n=100)
    src = overlay.node_ids()[0]
    keys = [k % KS.size for k in range(500, 900)]
    deliveries = run_mcast(overlay, sim, src, keys)
    # Each delivered node's covered targets are a subset of the branch
    # it received, and every target key is covered by exactly one
    # delivered node.
    covered = Counter()
    for node_id, message in deliveries:
        for key in message.target_keys:
            if overlay.covers(node_id, key):
                covered[key] += 1
    assert set(covered) == set(keys)
    assert all(count == 1 for count in covered.values())


def test_sequential_cast_same_coverage_more_dilation():
    """Section 4.3.1: the conservative baseline matches m-cast's message
    count asymptotics but its dilation grows with the range size."""
    keys = list(range(1000, 2200))

    def run(mode):
        sim, overlay = build(n=300, seed=4)
        overlay.set_deliver(lambda nid, m: None)
        src = overlay.node_ids()[0]
        message = make_message(src)
        if mode == "mcast":
            overlay.mcast(src, keys, message)
        else:
            overlay.sequential_cast(src, keys, message)
        sim.run()
        trace = overlay.recorder.messages.traces[message.request_id]
        return trace

    mcast_trace = run("mcast")
    seq_trace = run("seq")
    assert seq_trace.delivery_count == mcast_trace.delivery_count
    assert seq_trace.max_path_hops > 3 * mcast_trace.max_path_hops


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, KS.size - 1),
    st.integers(1, 1500),
    st.integers(0, 10**6),
)
def test_property_mcast_exactly_once_and_complete(start, span, seed):
    sim, overlay = build(n=80, seed=seed % 50 + 1)
    keys = [(start + i) % KS.size for i in range(span)]
    src = overlay.node_ids()[seed % 80]
    deliveries = run_mcast(overlay, sim, src, keys)
    expected = {overlay.owner_of(k) for k in keys}
    counts = Counter(nid for nid, _ in deliveries)
    assert set(counts) == expected
    assert all(count == 1 for count in counts.values())


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(0, KS.size - 1), min_size=1, max_size=200))
def test_property_mcast_scattered_keys(keys):
    """Non-contiguous target sets are covered exactly once per node too."""
    sim, overlay = build(n=120, seed=9)
    src = overlay.node_ids()[0]
    deliveries = run_mcast(overlay, sim, src, keys)
    expected = {overlay.owner_of(k) for k in keys}
    counts = Counter(nid for nid, _ in deliveries)
    assert set(counts) == expected
    assert all(count == 1 for count in counts.values())
