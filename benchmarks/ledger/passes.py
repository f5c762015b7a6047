"""One measured pass of one workload, run in a process of its own.

A pass sets the system up (timed from the first import), injects the
generated ops with ``Simulator.schedule_at``, runs the simulator in
equal slices of simulated time, and reports every simulated metric, the
behaviour fingerprint, host wall time per slice and resident memory.
A *profiled* pass additionally runs the timed region under ``cProfile``
with a ``MatchWork`` handle attached to every rendezvous store, which
yields the exact Python call count and the per-layer fold; with
``count_only`` the profiler skips caller bookkeeping (a quarter less
overhead) and the pass reports the same exact count without the fold.

Simulated results never depend on which kind of pass produced them;
``run.py`` refuses to report when two passes of a workload disagree.
"""

from __future__ import annotations

import cProfile
import gc
import math
import resource
import time
import traceback

SLICES = 40
#: Rendezvous occupancy is sampled after every this-many slices.
OCCUPANCY_EVERY = 5
#: One-hop delay in simulated seconds (the paper's 50 ms); notification
#: delays are whole multiples of it.
HOP_DELAY = 0.05


def vm_rss_bytes() -> int:
    """Current resident set size (``/proc/self/status`` VmRSS)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


def grouped_percentile(delays: list[float], q: float) -> float:
    """Percentile of delays that are whole multiples of ``HOP_DELAY``.

    The delays take a few dozen distinct values, so a nearest-rank
    percentile jumps by a whole hop (12% at the median) when a seed
    moves a handful of samples across the rank.  The grouped-data
    estimate treats level ``k`` as the bin ``(k - 1/2, k + 1/2]`` hops
    and interpolates inside the bin holding the rank, which moves
    smoothly with the distribution and still reads in seconds.
    """
    levels: dict[int, int] = {}
    for delay in delays:
        level = round(delay / HOP_DELAY)
        levels[level] = levels.get(level, 0) + 1
    rank = q * len(delays)
    below = 0
    for level in sorted(levels):
        count = levels[level]
        if below + count >= rank:
            return (level - 0.5 + (rank - below) / count) * HOP_DELAY
        below += count
    return max(levels) * HOP_DELAY


def tail_quantile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at the 99th."""
    if samples < 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / samples)


def run_pass(
    name: str,
    seed: int,
    scale: float = 1.0,
    profile: bool = False,
    observer: str | None = None,
    started: float | None = None,
    setup_only: bool = False,
    count_only: bool = False,
) -> dict:
    """Set up and run one workload; see the module docstring.

    ``observer`` marks an observer leg and names the one observer it
    turns on: ``off`` (none), ``tracing`` (span tracer), ``load`` (load
    meter) or ``audit`` (the online auditor).  Observer legs attach no
    ``MatchWork`` handles, so their call counts differ by the observer
    alone.  ``started`` is the ``perf_counter`` reading taken
    before ``repro`` was imported, so set-up time includes the imports.
    ``setup_only`` returns after set-up with nothing but its duration.
    ``count_only`` (with ``profile``) reports the total call count alone.
    """
    if started is None:
        started = time.perf_counter()
    from repro.metrics.fingerprint import behavior_fingerprint
    from repro.overlay.api import MessageKind
    from repro.telemetry import NullTracer, Telemetry
    from repro.telemetry.load import MatchWork

    import layers
    from workloads import WORKLOADS, build_system, generate_inputs, ring_ids_for

    workload = WORKLOADS[name].scaled(scale)
    gc.collect()
    rss_before = vm_rss_bytes()

    # -- set-up: ring build, system construction, trace, scheduling ---------
    telemetry = None
    if observer == "tracing":
        telemetry = Telemetry(load_metering=False)
    elif observer == "load":
        telemetry = Telemetry(tracer=NullTracer())
    ring_ids = ring_ids_for(workload, seed)
    sim, system = build_system(workload, ring_ids, telemetry)
    if observer == "audit":
        from repro.audit import Auditor

        Auditor(system)  # attaches itself to the system's hooks
    inputs = generate_inputs(workload, seed, ring_ids)
    observed: list[tuple[int, int, int]] = []
    delays: list[float] = []

    def on_notify(node: int, notifications) -> None:
        now = sim.now
        for n in notifications:
            observed.append((node, n.event.event_id, n.subscription_id))
            delays.append(now - n.published_at)

    system.set_global_notify_handler(on_notify)
    works: list[MatchWork] = []

    def attach(node_id: int) -> None:
        work = MatchWork(node_id)
        works.append(work)
        system.node(node_id).store.attach_match_stats(work)

    if profile and observer is None:
        for node_id in system.overlay.node_ids():
            attach(node_id)
    errors: list[str] = []

    def inject(call, *args) -> None:
        try:
            call(*args)
        except Exception:  # boundary: count it, keep the first traceback
            errors.append(traceback.format_exc() if not errors else "")

    def join(node_id: int) -> None:
        system.add_node(node_id)
        if works:
            attach(node_id)

    calls = {"leave": system.remove_node, "crash": system.crash_node, "join": join}
    for op in inputs.ops:
        if op.kind == "sub":
            sim.schedule_at(
                op.time, inject, system.subscribe, op.node, op.subscription, op.ttl
            )
        elif op.kind == "pub":
            sim.schedule_at(op.time, inject, system.publish, op.node, op.event)
        else:
            sim.schedule_at(op.time, inject, calls[op.kind], op.node)
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup_s}

    # -- timed region ---------------------------------------------------------
    bounds = [inputs.horizon * (i + 1) / SLICES for i in range(SLICES)]
    profiler = cProfile.Profile(subcalls=not count_only) if profile else None
    slice_walls: list[float] = []
    stored_max = 0
    overlay = system.overlay
    events_before = sim.events_processed
    for index, bound in enumerate(bounds):
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        sim.run_until(bound)
        slice_walls.append(time.perf_counter() - t0)
        if profiler is not None:
            profiler.disable()
        if index % OCCUPANCY_EVERY == OCCUPANCY_EVERY - 1:
            for node_id in overlay.node_ids():
                stored_max = max(stored_max, len(system.node(node_id).store))
    gc.collect()
    rss_after = vm_rss_bytes()
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- results, outside the timed region --------------------------------------
    recorder = system.recorder
    messages = recorder.messages
    fingerprint = behavior_fingerprint(recorder)
    import oracle

    verdict = oracle.judge(inputs.ops, observed, inputs.protected)
    stored = collapsed = 0
    for node_id in overlay.node_ids():
        store = system.node(node_id).store
        stored += len(store)
        if store.covering is not None:
            collapsed += store.covering.collapsed_count
    ops = workload.ops
    publications = workload.publications
    hops = sorted(
        t.max_path_hops for t in messages.traces.values() if t.deliveries
    )
    subs = [op.subscription for op in inputs.ops if op.kind == "sub"]
    pubs = [op.event for op in inputs.ops if op.kind == "pub"]
    mapping = system.mapping
    maintenance = overlay.maintenance_totals()
    tail_q = tail_quantile(len(delays))
    simulated = {
        "events": sim.events_processed - events_before,
        "msgs_per_op": fingerprint["total_one_hop_sends"] / ops,
        "notify_delay_samples": len(delays),
        "notify_delay_p50_sim_s": grouped_percentile(delays, 0.5),
        "notify_delay_p99_sim_s": grouped_percentile(delays, tail_q),
        "notify_delay_tail_quantile": tail_q,
        "pairs_expected": verdict.expected,
        "pairs_delivered": verdict.delivered,
        "false_positives": verdict.false_positives,
        "delivered_share": verdict.delivered_share,
        "ops_raised": len(errors),
        "membership_ops": len(inputs.ops) - ops,
        "sim.events_per_op": (sim.events_processed - events_before) / ops,
        "overlay.network.dropped": overlay.network.dropped,
        "overlay.network.lost": overlay.network.lost,
        "overlay.pub_hops_mean": recorder.mean_hops(MessageKind.PUBLICATION),
        "overlay.sub_msgs_mean": recorder.mean_hops(MessageKind.SUBSCRIPTION),
        "overlay.notif_hops_mean": recorder.mean_hops(MessageKind.NOTIFICATION),
        "overlay.path_hops_p99": hops[math.ceil(0.99 * len(hops)) - 1],
        "overlay.table_rebuilds": maintenance["table_rebuilds"],
        "overlay.table_patches": maintenance["table_patches"],
        "overlay.table_seeds": maintenance["table_seeds"],
        "core.mappings.keys_per_sub": sum(
            len(mapping.subscription_keys(s)) for s in subs
        ) / len(subs),
        "core.mappings.keys_per_pub": sum(
            len(mapping.event_keys(e)) for e in pubs
        ) / len(pubs),
        "core.rendezvous.stored_max_per_node": stored_max,
        "core.system.notifications_per_pub": recorder.matched_notifications
        / publications,
        "matching.cover_collapsed_share": collapsed / stored if stored else 0.0,
    }
    result = {
        "nodes": workload.nodes,
        # Crashes lose state by design; without churn every expected
        # pair must arrive.
        "delivery_guaranteed": workload.churn is None,
        "ops": ops,
        "setup_s": setup_s,
        "run_s": sum(slice_walls),
        "slice_walls": slice_walls,
        "rss_before": rss_before,
        "rss_after": rss_after,
        "max_rss_kb": max_rss_kb,
        "sha256": fingerprint["sha256"],
        "simulated": simulated,
    }
    if errors:
        result["first_error"] = errors[0]
    if count_only and profiler is not None:
        result["profile"] = {
            "total_calls": sum(e.callcount for e in profiler.getstats())
        }
    elif profiler is not None:
        folded = layers.fold(profiler)
        result["profile"] = folded
        if works:
            matches = folded["match_calls"]
            verified = sum(w.verified for w in works)
            result["matching"] = {
                "matching.match_calls_per_pub": matches / publications,
                "matching.candidates_per_match": (
                    sum(w.candidates for w in works) / matches if matches else 0.0
                ),
                "matching.hit_ratio": (
                    sum(w.matched for w in works) / verified if verified else 0.0
                ),
            }
    return result
