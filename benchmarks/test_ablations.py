"""Ablation benches for the design choices called out in DESIGN.md.

1. Location cache on/off (explains the Section 5.1 routing figure).
2. Matching engine: grid index vs brute force at rendezvous scale.
3. Overlay portability: the same workload over Chord vs Pastry vs CAN.
"""

import random
import time

from conftest import scaled

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.events import Event
from repro.core.mappings import make_mapping
from repro.experiments.report import render_table
from repro.matching import BruteForceMatcher, GridIndexMatcher
from repro.overlay.api import MessageKind
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.can import CanOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.workload.generator import SubscriptionGenerator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)


def test_matching_engine_ablation(benchmark):
    """Grid index vs brute force on a rendezvous-sized store."""
    spec = WorkloadSpec()
    rng = random.Random(3)
    generator = SubscriptionGenerator(spec, rng)
    space = generator.space
    subscriptions = [generator.generate() for _ in range(scaled(2000))]
    events = [
        Event(
            space=space,
            values=tuple(rng.randrange(spec.domain_size) for _ in range(4)),
        )
        for _ in range(200)
    ]

    def match_all(matcher):
        total = 0
        for event in events:
            total += len(matcher.match(event))
        return total

    grid = GridIndexMatcher(space)
    brute = BruteForceMatcher()
    for sigma in subscriptions:
        grid.add(sigma)
        brute.add(sigma)

    t0 = time.perf_counter()
    brute_total = match_all(brute)
    brute_seconds = time.perf_counter() - t0

    grid_total = benchmark(match_all, grid)
    assert grid_total == brute_total  # engines agree
    t0 = time.perf_counter()
    match_all(grid)
    grid_seconds = time.perf_counter() - t0
    print(
        f"\nmatching {len(events)} events against {len(subscriptions)} subs: "
        f"brute {brute_seconds * 1000:.0f} ms, grid {grid_seconds * 1000:.0f} ms "
        f"({brute_seconds / max(grid_seconds, 1e-9):.0f}x)"
    )
    assert grid_seconds < brute_seconds


def _run_workload(overlay_cls, cache_capacity=128, seed=13):
    sim = Simulator()
    if overlay_cls is PastryOverlay:  # has no location cache
        overlay = PastryOverlay(sim, KS)
    else:
        overlay = overlay_cls(sim, KS, cache_capacity=cache_capacity)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), 300))
    spec = WorkloadSpec(subscription_ttl=None)
    space = spec.make_space()
    system = PubSubSystem(
        sim,
        overlay,
        make_mapping("selective-attribute", space, KS),
        PubSubConfig(routing=RoutingMode.MCAST),
    )
    Trace.generate(
        spec, random.Random(seed + 1), overlay.node_ids(), scaled(120), scaled(120)
    ).replay(system)
    messages = system.recorder.messages
    return {
        "sub_hops": messages.mean_hops_per_request(MessageKind.SUBSCRIPTION),
        "pub_hops": messages.mean_hops_per_request(MessageKind.PUBLICATION),
        "notify_hops": messages.mean_hops_per_request(MessageKind.NOTIFICATION),
    }


def test_location_cache_ablation(benchmark):
    """Cache off vs on, end to end (not just raw routing), on both
    overlays that have one."""
    runs = {
        ("chord", 128): benchmark.pedantic(
            lambda: _run_workload(ChordOverlay, cache_capacity=128),
            rounds=1,
            iterations=1,
        ),
        ("chord", 0): _run_workload(ChordOverlay, cache_capacity=0),
        ("can", 128): _run_workload(CanOverlay, cache_capacity=128),
        ("can", 0): _run_workload(CanOverlay, cache_capacity=0),
    }
    print()
    print(
        render_table(
            ["config", "sub hops", "pub hops", "notify hops"],
            [
                [f"{overlay} cache={cache}", r["sub_hops"], r["pub_hops"],
                 r["notify_hops"]]
                for (overlay, cache), r in runs.items()
            ],
            title="Ablation — location cache (mapping 3, m-cast, n=300)",
        )
    )
    for overlay in ("chord", "can"):
        assert runs[overlay, 128]["notify_hops"] < runs[overlay, 0]["notify_hops"]
    # The origin of a Chord m-cast reads its cache: publications get cheaper.
    assert runs["chord", 128]["pub_hops"] < runs["chord", 0]["pub_hops"]
    # CAN's m-cast still reads nothing: only unicast requests move.
    assert runs["can", 128]["sub_hops"] == runs["can", 0]["sub_hops"]
    assert runs["can", 128]["pub_hops"] == runs["can", 0]["pub_hops"]


def test_overlay_portability_cost(benchmark):
    """Chord vs Pastry vs CAN under the same pub/sub workload.

    Expected shape: all three m-cast in O(log n + N_range) messages.
    CAN runs the paper's Fig. 4 over key order with its express links
    as fingers, so it lands next to Chord; its publications cost a
    little more only because a Chord m-cast's origin also reads its
    location cache and CAN's reads none."""
    chord = benchmark.pedantic(
        lambda: _run_workload(ChordOverlay), rounds=1, iterations=1
    )
    pastry = _run_workload(PastryOverlay)
    can = _run_workload(CanOverlay)
    print()
    print(
        render_table(
            ["overlay", "sub hops", "pub hops", "notify hops"],
            [
                ["chord", chord["sub_hops"], chord["pub_hops"], chord["notify_hops"]],
                ["pastry", pastry["sub_hops"], pastry["pub_hops"], pastry["notify_hops"]],
                ["can", can["sub_hops"], can["pub_hops"], can["notify_hops"]],
            ],
            title="Ablation — overlay substrate (mapping 3, m-cast, n=300)",
        )
    )
    # All three complete the workload; CAN's publications cost a little
    # more than Chord's (12.62 against 12.38 messages at n=300), whose
    # m-cast origin reads its cache.
    assert pastry["sub_hops"] < 10 * max(chord["sub_hops"], 1)
    assert can["pub_hops"] > chord["pub_hops"]
