"""Baseline: event-space partitioning (related work, Section 2 / [16])
compared against the paper's three mappings on the Section 5.1 workload.

Expected shape: like Key-Space-Split, ESP sends each event to exactly
one rendezvous; its subscription fan-out sits between Key-Space-Split
and Selective-Attribute at the default grid, illustrating Section 2's
point that ESP minimizes event traffic rather than subscription cost.
"""

import random

from conftest import scaled

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.experiments.report import render_table
from repro.overlay.api import MessageKind
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)
MAPPINGS = (
    "attribute-split",
    "keyspace-split",
    "selective-attribute",
    "event-space-partition",
)


def run_mapping(name, seed=17):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), 300))
    spec = WorkloadSpec(subscription_ttl=None)
    space = spec.make_space()
    mapping = make_mapping(name, space, KS)
    system = PubSubSystem(
        sim, overlay, mapping, PubSubConfig(routing=RoutingMode.MCAST)
    )
    trace = Trace.generate(
        spec, random.Random(seed + 1), overlay.node_ids(), scaled(150), scaled(150)
    )
    trace.replay(system)
    messages = system.recorder.messages
    subscriptions, events = trace.subscriptions, trace.events
    keys_per_sub = sum(
        len(mapping.subscription_keys(s)) for s in subscriptions
    ) / max(1, len(subscriptions))
    keys_per_pub = sum(
        len(mapping.event_keys(e)) for e in events
    ) / max(1, len(events))
    storage = system.subscriptions_per_node()
    return {
        "mapping": name,
        "keys_per_sub": keys_per_sub,
        "keys_per_pub": keys_per_pub,
        "sub_hops": messages.mean_hops_per_request(MessageKind.SUBSCRIPTION),
        "pub_hops": messages.mean_hops_per_request(MessageKind.PUBLICATION),
        "max_storage": max(storage.values(), default=0),
    }


def test_event_space_partition_baseline(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_mapping(name) for name in MAPPINGS], rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["mapping", "keys/sub", "keys/pub", "sub hops", "pub hops",
             "max subs/node"],
            [
                [r["mapping"], r["keys_per_sub"], r["keys_per_pub"],
                 r["sub_hops"], r["pub_hops"], r["max_storage"]]
                for r in rows
            ],
            title="Related-work baseline — event-space partitioning vs the "
                  "paper's mappings",
        )
    )
    by_name = {r["mapping"]: r for r in rows}
    esp = by_name["event-space-partition"]
    # ESP forwards each event to exactly one rendezvous (Section 2).
    assert esp["keys_per_pub"] == 1.0
    # Its subscription fan-out exceeds Key-Space-Split's near-1.
    assert esp["keys_per_sub"] > by_name["keyspace-split"]["keys_per_sub"]
    # And stays far below Attribute-Split's union-of-attributes blowup.
    assert esp["keys_per_sub"] < by_name["attribute-split"]["keys_per_sub"]