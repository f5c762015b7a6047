"""Adaptiveness under continuous churn (Section 4.1).

The architecture's claim: node joins, departures and crashes are
absorbed by the overlay's re-mapping plus state transfer/replication,
with no manual intervention.  This bench runs the paper's workload
(matching probability forced to 1 so every publication *should*
notify) under increasing churn intensity, with and without replication,
and reports the delivered fraction.

Expected shape: graceful joins/leaves barely dent delivery (state
transfer moves subscriptions with their keys); crashes without
replication lose the crashed rendezvous' subscriptions; replication
recovers most of that loss.
"""

import random

from conftest import scaled

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.experiments.report import render_table
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from repro.workload.spec import ChurnSpec, WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)


def run_condition(label, churn_spec, replication, seed=19):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), 200))
    workload_spec = WorkloadSpec(matching_probability=1.0)
    space = workload_spec.make_space()
    system = PubSubSystem(
        sim,
        overlay,
        make_mapping("selective-attribute", space, KS),
        PubSubConfig(
            routing=RoutingMode.MCAST,
            replication_factor=replication,
            failure_detection_delay=0.3,
        ),
    )
    received = []
    system.set_global_notify_handler(lambda nid, ns: received.extend(ns))
    trace = Trace.generate(
        workload_spec, random.Random(seed + 2), overlay.node_ids(),
        scaled(60), scaled(120),
        churn=churn_spec, churn_rng=random.Random(seed + 1),
        keyspace_size=KS.size,
    )
    trace.replay(system)
    got = {(n.event.event_id, n.subscription_id) for n in received}
    # A departed subscriber's notifications are not delivered at the
    # node that takes its id over, so only a subscriber still live at
    # the end of the run is owed its matches.
    live = set(overlay.node_ids())
    held = [op.subscription for op in trace.ops if op.kind == "sub" and op.node in live]
    expected = {
        (event.event_id, sigma.subscription_id)
        for event in trace.events
        for sigma in held
        if sigma.matches(event)
    }
    ratio = len(got & expected) / len(expected) if expected else 1.0
    return {
        "condition": label,
        "churn_events": len(trace) - len(trace.events) - len(trace.subscriptions),
        "expected": len(expected),
        "delivered_ratio": ratio,
    }


def run_study():
    quiet = ChurnSpec()
    graceful = ChurnSpec(join_period=20.0, leave_period=20.0)
    crashy = ChurnSpec(join_period=20.0, crash_period=25.0)
    return [
        run_condition("no churn", quiet, replication=0),
        run_condition("joins+leaves (graceful)", graceful, replication=0),
        run_condition("joins+crashes, r=0", crashy, replication=0),
        run_condition("joins+crashes, r=2", crashy, replication=2),
    ]


def test_churn_resilience(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["condition", "churn events", "expected matches", "delivered"],
            [
                [r["condition"], r["churn_events"], r["expected"],
                 f"{r['delivered_ratio']:.1%}"]
                for r in rows
            ],
            title="Adaptiveness — delivery under continuous churn (n=200)",
        )
    )
    by_label = {r["condition"]: r for r in rows}
    assert by_label["no churn"]["delivered_ratio"] == 1.0
    # Graceful churn: state transfer keeps delivery near-perfect.
    assert by_label["joins+leaves (graceful)"]["delivered_ratio"] > 0.95
    # Crashes hurt without replication; replication recovers most of it.
    r0 = by_label["joins+crashes, r=0"]["delivered_ratio"]
    r2 = by_label["joins+crashes, r=2"]["delivered_ratio"]
    assert r2 >= r0
    assert r2 > 0.9