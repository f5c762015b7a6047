"""End-to-end delivery across every mapping x routing-mode combination,
driven by the paper's synthetic workload."""

import random

import pytest

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.overlay.api import MessageKind
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)
MAPPINGS = ["attribute-split", "keyspace-split", "selective-attribute"]


def run_workload(mapping, routing, n=80, subs=25, pubs=40, seed=11, config=None):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=32)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    spec = WorkloadSpec(matching_probability=1.0)
    space = spec.make_space()
    system = PubSubSystem(
        sim,
        overlay,
        make_mapping(mapping, space, KS),
        config or PubSubConfig(routing=routing),
    )
    notifications = []
    system.set_global_notify_handler(lambda nid, ns: notifications.extend(ns))
    trace = Trace.generate(
        spec, random.Random(seed + 1), overlay.node_ids(), subs, pubs
    )
    trace.replay(system)
    return system, trace, notifications


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize(
    "routing", [RoutingMode.UNICAST, RoutingMode.MCAST, RoutingMode.SEQUENTIAL]
)
def test_no_false_negatives(mapping, routing):
    """Every (publication, live matching subscription) pair must be
    notified: the mapping intersection rule end to end.

    Publications arriving before their matching subscription finished
    propagating are exempt (in-flight races are inherent to the
    asynchronous system, not a correctness bug)."""
    system, trace, notifications = run_workload(mapping, routing)
    got = {(n.event.event_id, n.subscription_id) for n in notifications}
    subs = trace.subscriptions
    missing = []
    for event in trace.events:
        for sigma in subs:
            if sigma.matches(event):
                if (event.event_id, sigma.subscription_id) not in got:
                    missing.append((event.event_id, sigma.subscription_id))
    # The workload interleaves injections 5 s apart with 0.05 s hops, so
    # in-flight races are essentially impossible here: demand zero loss.
    assert missing == []


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_no_false_positives(mapping):
    """Nothing is delivered for (event, subscription) pairs that do not
    match — matching happens at rendezvous, not at the subscriber."""
    system, trace, notifications = run_workload(mapping, RoutingMode.MCAST)
    subs = {s.subscription_id: s for s in trace.subscriptions}
    events = {e.event_id: e for e in trace.events}
    for notification in notifications:
        sigma = subs[notification.subscription_id]
        event = events[notification.event.event_id]
        assert sigma.matches(event)


def test_mcast_strictly_cheaper_for_fanout_mappings():
    results = {}
    for routing in (RoutingMode.UNICAST, RoutingMode.MCAST):
        system, _, _ = run_workload("attribute-split", routing, pubs=0, subs=20)
        results[routing] = system.recorder.messages.mean_hops_per_request(
            MessageKind.SUBSCRIPTION
        )
    assert results[RoutingMode.MCAST] < 0.2 * results[RoutingMode.UNICAST]


def test_buffered_run_delivers_everything():
    config = PubSubConfig(
        routing=RoutingMode.MCAST, buffering=True, collecting=True,
        buffer_period=5.0,
    )
    system, trace, notifications = run_workload(
        "selective-attribute", RoutingMode.MCAST, config=config
    )
    got = {(n.event.event_id, n.subscription_id) for n in notifications}
    expected = {
        (event.event_id, sigma.subscription_id)
        for event in trace.events
        for sigma in trace.subscriptions
        if sigma.matches(event)
    }
    assert got >= expected


def test_notification_count_matches_match_count():
    system, trace, notifications = run_workload(
        "keyspace-split", RoutingMode.MCAST
    )
    expected = sum(
        1
        for event in trace.events
        for sigma in trace.subscriptions
        if sigma.matches(event)
    )
    assert len(notifications) == expected
