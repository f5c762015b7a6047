"""Larger-scale smoke runs (kept modest so CI stays fast; the real
scale knobs live in the benchmark suite's REPRO_BENCH_SCALE)."""

import random

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)


def test_two_thousand_node_ring_end_to_end():
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(1).sample(range(KS.size), 2000))
    spec = WorkloadSpec(matching_probability=1.0)
    space = spec.make_space()
    system = PubSubSystem(
        sim,
        overlay,
        make_mapping("selective-attribute", space, KS),
        PubSubConfig(routing=RoutingMode.MCAST),
    )
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    trace = Trace.generate(spec, random.Random(2), overlay.node_ids(), 40, 60)
    trace.replay(system)
    expected = sum(
        1
        for event in trace.events
        for sigma in trace.subscriptions
        if sigma.matches(event)
    )
    assert len(received) == expected
    assert expected >= 40  # matching probability 1.0


def test_mid_multicast_crash_is_safe():
    """A node crashing while an m-cast is in flight loses only the
    branches addressed to it; everything else still delivers and the
    simulation never wedges."""
    sim = Simulator()
    overlay = ChordOverlay(sim, KS, cache_capacity=0)
    overlay.build_ring(random.Random(3).sample(range(KS.size), 300))
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    from repro.overlay.api import MessageKind, OverlayMessage, next_request_id

    src = overlay.node_ids()[0]
    keys = list(range(1000, 3000))
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION, payload=None,
        request_id=next_request_id(), origin=src,
    )
    overlay.mcast(src, keys, message)
    # Let the first wave of branches fly, then crash a covering node.
    sim.run_until(sim.now + 0.06)
    victims = [n for n in overlay.node_ids() if 1000 <= n <= 3000][:3]
    for victim in victims:
        if victim != src:
            overlay.crash(victim)
    sim.run()
    survivors = {overlay.owner_of(k) for k in keys} - set(victims)
    # Every surviving expected node that was reached is unique, and a
    # substantial majority of the range was still covered.
    assert len(set(delivered)) >= 0.7 * len(survivors)
    assert overlay.network.dropped >= 0  # no exception paths
