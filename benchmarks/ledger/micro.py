"""Micro-drivers: one layer at a time, through public calls only.

Each driver times a loop of public calls (best of ``REPEATS`` fresh
repetitions) and, where a ``calls_per_*`` row asks, profiles one more
repetition for an exact call count,
so a regression in an end-to-end metric can be traced to its layer and
a layer change has a number that no other layer moves.  Rates are
wall-clock and ungated; ``calls_per_*`` and the hop and message counts
are exact for a given seed.
"""

from __future__ import annotations

import cProfile
import math
import random
import time

from repro.core.mappings import Discretization, make_mapping
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SubscriptionStore
from repro.matching import (
    BruteForceMatcher,
    CoveringIndex,
    GridIndexMatcher,
    RadixBitmapMatcher,
    make_vector_matcher,
)
from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

from workloads import WORKLOADS

REPEATS = 2
MAPPINGS = ("attribute-split", "keyspace-split", "selective-attribute")
ENGINES = {
    "grid": GridIndexMatcher,
    "vector": make_vector_matcher,
    "radix": RadixBitmapMatcher,
    "brute": lambda space: BruteForceMatcher(),
}
OVERLAYS = {
    "chord": lambda sim, ks: ChordOverlay(sim, ks, cache_capacity=128),
    "pastry": PastryOverlay,
    "can": CanOverlay,
}

#: Paper-bound checks: metric name -> (low, high, source).
PAPER_BOUNDS = {
    "overlay.chord.micro.lookup_hops_n500": (
        2.0, 3.0, "5.1: ~2.5 hops at n=500 with finger caching"),
    "overlay.chord.micro.mcast_msgs_over_bound": (
        0.0, 1.5, "4.3.1: O(log n + N_range) one-hop messages per m-cast"),
    "overlay.chord.micro.mcast_dilation_over_log2n": (
        0.0, 1.5, "4.3.1: O(log n) delivery dilation"),
}


def _rate(make, count: int, repeats: int = REPEATS) -> float:
    """Operations per second of ``make()()``, best of ``repeats``.

    ``make`` builds fresh state and returns the loop body, so every
    repetition does identical work.  Drivers whose state is slow to
    build time it once.
    """
    best = math.inf
    for _ in range(repeats):
        body = make()
        start = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - start)
    return count / best


def _calls_per_op(make, count: int) -> float:
    """Exact Python and builtin calls per operation of ``make()()``."""
    body = make()
    profiler = cProfile.Profile()
    profiler.enable()
    body()
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()) / count


def _message(origin: int) -> OverlayMessage:
    return OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=origin,
    )


def _null_deliver(node_id: int, message: OverlayMessage) -> None:
    pass


def _sim_micro(out: dict, n: int) -> None:
    def make():
        sim = Simulator()

        def noop() -> None:
            pass

        def body() -> None:
            for i in range(n):
                sim.schedule_at(i * 0.001, noop)
            sim.run_until(n)

        return body

    out["sim.micro.events_per_s"] = _rate(make, n)


def _network_micro(out: dict, n: int) -> None:
    def make():
        sim = Simulator()
        network = Network(sim)
        for node in range(64):
            network.register(node, lambda message: None, lambda messages: None)
        message = _message(0)

        def body() -> None:
            for i in range(n):
                network.transmit(i & 63, (i * 7) & 63, message)
            sim.run()

        return body

    out["overlay.network.micro.msgs_per_s"] = _rate(make, n)
    out["overlay.network.micro.calls_per_msg"] = _calls_per_op(make, n)


def _converged_ring(kind: str, seed: int, warmup: int):
    """An n=500 ring whose caches have seen ``warmup`` random lookups."""
    rng = random.Random(f"{seed}:micro:{kind}")
    sim = Simulator()
    keyspace = KeySpace(13)
    overlay = OVERLAYS[kind](sim, keyspace)
    overlay.build_ring(rng.sample(range(keyspace.size), 500))
    overlay.set_deliver(_null_deliver)
    nodes = overlay.node_ids()
    for _ in range(warmup):
        source = rng.choice(nodes)
        overlay.send(source, rng.randrange(keyspace.size), _message(source))
        sim.run()
    return sim, overlay, nodes, rng


def _overlay_micro(out: dict, kind: str, seed: int, n: int) -> None:
    prefix = f"overlay.{kind}.micro"
    sends: list[int] = []

    def make_lookups():
        sim, overlay, nodes, rng = _converged_ring(kind, seed, n)
        stats = overlay.recorder.messages

        def body() -> None:
            before = stats.total_sends()
            for _ in range(n):
                source = rng.choice(nodes)
                overlay.send(source, rng.randrange(8192), _message(source))
                sim.run()
            sends.append(stats.total_sends() - before)

        return body

    out[f"{prefix}.lookups_per_s"] = _rate(make_lookups, n)
    out[f"{prefix}.calls_per_lookup"] = _calls_per_op(make_lookups, n)
    out[f"{prefix}.lookup_hops_n500"] = sends[0] / n
    churn = max(10, n // 10)

    def make_churn():
        sim, overlay, nodes, rng = _converged_ring(kind, seed, 0)
        live = set(nodes)
        fresh = [k for k in rng.sample(range(8192), churn * 2) if k not in live]

        def body() -> None:
            for node_id in fresh[:churn]:
                overlay.join(node_id)
                overlay.leave(node_id)

        return body

    out[f"{prefix}.churn_ops_per_s"] = _rate(make_churn, 2 * churn)


def _mcast_micro(out: dict, seed: int, n: int) -> None:
    nodes_n = 2000
    ratios: list[float] = []
    dilations: list[float] = []
    messages: list[int] = []

    def make():
        rng = random.Random(f"{seed}:micro:mcast")
        sim = Simulator()
        overlay = ChordOverlay(sim, KeySpace(13), cache_capacity=128)
        overlay.build_ring(rng.sample(range(8192), nodes_n))
        overlay.set_deliver(_null_deliver)
        nodes = overlay.node_ids()
        stats = overlay.recorder.messages
        log_n = math.log2(nodes_n)

        def body() -> None:
            del ratios[:], dilations[:]
            total = 0
            for _ in range(n):
                source = rng.choice(nodes)
                start = rng.randrange(8192)
                keys = frozenset((start + k) % 8192 for k in range(64))
                message = _message(source)
                stats.begin_request(message.kind, message.request_id, sim.now)
                overlay.mcast(source, keys, message)
                sim.run()
                trace = stats.traces[message.request_id]
                n_range = len({overlay.owner_of(k) for k in keys})
                ratios.append(trace.one_hop_messages / (log_n + n_range))
                dilations.append(trace.max_path_hops / log_n)
                total += trace.one_hop_messages
            messages.append(total)

        return body

    calls = _calls_per_op(make, n)
    out["overlay.chord.micro.mcast_msgs_over_bound"] = sum(ratios) / len(ratios)
    out["overlay.chord.micro.mcast_dilation_over_log2n"] = sum(dilations) / len(
        dilations
    )
    out["overlay.chord.micro.calls_per_mcast_msg"] = calls * n / messages[-1]


def _build_ring_micro(out: dict, seed: int, nodes: int) -> None:
    rng = random.Random(f"{seed}:micro:build")
    ids = rng.sample(range(1 << 17), nodes)
    best = math.inf
    for _ in range(REPEATS):
        overlay = ChordOverlay(Simulator(), KeySpace(17), cache_capacity=1024)
        start = time.perf_counter()
        overlay.build_ring(ids)
        best = min(best, time.perf_counter() - start)
    out["overlay.chord.micro.build_ring_s_n20k"] = best


def _mapping_micro(out: dict, seed: int, n: int) -> None:
    spec = WorkloadSpec()
    trace = Trace.generate(spec, random.Random(f"{seed}:micro:map"), [0], n, n)
    subs = [op.subscription for op in trace.ops if op.kind == "sub"]
    events = [op.event for op in trace.ops if op.kind == "pub"]
    space = trace.space
    cases = [(name, make_mapping(name, space, KeySpace(13))) for name in MAPPINGS]
    cases.append((
        "selective-attribute.disc256",
        make_mapping(
            "selective-attribute", space, KeySpace(17),
            discretization=Discretization.uniform(space.dimensions, 256),
        ),
    ))
    for name, mapping in cases:
        prefix = f"core.mappings.micro.{name}"

        def sub_keys() -> None:
            for subscription in subs:
                mapping.subscription_keys(subscription)

        def event_keys() -> None:
            for event in events:
                mapping.event_keys(event)

        out[f"{prefix}.sub_keys_per_s"] = _rate(lambda: sub_keys, n)
        if not name.endswith("disc256"):
            out[f"{prefix}.event_keys_per_s"] = _rate(lambda: event_keys, n)


def _dense_trace(seed: int, subs: int, events: int) -> Trace:
    """Subscriptions and events of the ``match-dense`` shape."""
    return Trace.generate(
        WORKLOADS["match-dense"].spec,
        random.Random(f"{seed}:micro:dense"),
        [0],
        subs,
        events,
    )


def _matching_micro(out: dict, seed: int, n: int) -> None:
    trace = _dense_trace(seed, n, max(20, n // 10))
    subs = [op.subscription for op in trace.ops if op.kind == "sub"]
    events = [op.event for op in trace.ops if op.kind == "pub"]
    space = trace.space
    for name, factory in ENGINES.items():
        prefix = f"matching.micro.{name}"
        batch = events[: len(events) // 5] if name == "brute" else events

        def make_add():
            engine = factory(space)

            def body() -> None:
                for subscription in subs:
                    engine.add(subscription)

            return body

        # match() does not mutate, so one filled engine serves every repeat.
        engine = factory(space)
        for subscription in subs:
            engine.add(subscription)

        def match() -> None:
            for event in batch:
                engine.match(event)

        out[f"{prefix}.add_per_s"] = _rate(make_add, len(subs))
        out[f"{prefix}.match_per_s"] = _rate(lambda: match, len(batch))
        out[f"{prefix}.calls_per_match"] = _calls_per_op(lambda: match, len(batch))

    # Filling the forest is slow, so it is timed once; expand() does not
    # mutate, so the forest that was timed serves every repeat.
    index = CoveringIndex()

    def put() -> None:
        for subscription in subs:
            index.add(subscription)

    out["matching.micro.covering.put_per_s"] = _rate(
        lambda: put, len(subs), repeats=1
    )
    hits = [[r for r in index.roots() if r.matches(e)] for e in events]

    def expand() -> None:
        for event, roots in zip(events, hits):
            index.expand(roots, event)

    out["matching.micro.covering.match_per_s"] = _rate(
        lambda: expand, len(events)
    )


def _rendezvous_micro(out: dict, seed: int, n: int) -> None:
    trace = _dense_trace(seed, n, max(20, n // 10))
    payloads = [
        SubscribePayload(op.subscription, op.node, 10.0, ())
        for op in trace.ops
        if op.kind == "sub"
    ]
    events = [op.event for op in trace.ops if op.kind == "pub"]
    space = trace.space

    # One store is filled (timed once: puts are slow), matched against
    # and at last purged.  Nothing expires at t=1, so match() leaves it
    # as it was.
    store = SubscriptionStore(space, matcher="grid")

    def put() -> None:
        for payload in payloads:
            store.put(payload, {0}, 0.0)

    def match() -> None:
        for event in events:
            store.match(event, 1.0)

    prefix = "core.rendezvous.micro"
    out[f"{prefix}.put_per_s"] = _rate(lambda: put, len(payloads), repeats=1)
    out[f"{prefix}.match_per_s"] = _rate(lambda: match, len(events))
    out[f"{prefix}.purge_per_s"] = _rate(
        lambda: lambda: store.purge_expired(100.0), len(payloads), repeats=1
    )


def _workload_micro(out: dict, seed: int, n: int) -> None:
    ids = list(range(0, 8192, 16))
    subs, pubs = n // 10, n - n // 10

    def make():
        rng = random.Random(f"{seed}:micro:trace")
        return lambda: Trace.generate(WorkloadSpec(), rng, ids, subs, pubs)

    out["workload.micro.trace_ops_per_s"] = _rate(make, n)


def run_micro(seed: int, scale: float = 1.0) -> dict[str, float]:
    """Every micro-driver metric, by its ledger name."""

    def size(full: int) -> int:
        return max(20, int(full * scale))

    out: dict[str, float] = {}
    _sim_micro(out, size(50_000))
    _network_micro(out, size(50_000))
    for kind in OVERLAYS:
        _overlay_micro(out, kind, seed, size(1500))
    _mcast_micro(out, seed, size(150))
    _build_ring_micro(out, seed, size(20_000))
    _mapping_micro(out, seed, size(2000))
    _matching_micro(out, seed, size(2000))
    _rendezvous_micro(out, seed, size(2000))
    _workload_micro(out, seed, size(2000))
    return out


def paper_checks(metrics: dict[str, float]) -> list[dict]:
    """The paper-bound rows: each metric, its band and pass/fail."""
    rows = []
    for name, (low, high, source) in PAPER_BOUNDS.items():
        value = metrics[name]
        rows.append({
            "metric": name,
            "value": value,
            "low": low,
            "high": high,
            "source": source,
            "pass": low <= value <= high,
        })
    return rows
