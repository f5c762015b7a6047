"""Names, units, directions and bounds of every ledger metric.

``BENCHMARK.json`` at the repository root lists the same metrics; the
smoke run fails when the two drift apart.
"""

from __future__ import annotations

from layers import LAYERS

#: (name, unit, better, bound, source).  The bound is the share of the
#: parent's median by which the metric may worsen.  The driver feeds
#: every run a different seed, so each bound is three times the widest
#: spread (quartile distance over median) seen across ten seeds on any
#: workload, or the 0.25 a bound may be at most; the README has the
#: table the bounds were read from.
END_TO_END = (
    ("py_calls_per_op", "calls/op", "lower", 0.25,
     "Python and builtin calls cProfile counts in the timed region, per op; "
     "exact for a seed"),
    ("msgs_per_op", "msgs/op", "lower", 0.15,
     "one-hop overlay messages per op; exact, simulated"),
    ("notify_delay_p50_sim_s", "s", "lower", 0.25,
     "median publish-to-notify delay in simulated seconds (grouped-data "
     "estimate over 50 ms hop levels)"),
    ("notify_delay_p99_sim_s", "s", "lower", 0.22,
     "99th percentile of the same delays, or the highest percentile with "
     "ten samples beyond it"),
    ("delivered_share", "fraction", "higher", 0.2,
     "oracle-expected (publication, subscription) pairs delivered"),
    ("peak_rss_mb", "MiB", "lower", 0.07,
     "ru_maxrss of the measuring process"),
    ("bytes_per_node", "B/node", "lower", 0.12,
     "(VmRSS after the run - VmRSS before ring build) / nodes"),
    ("setup_s", "s", "lower", 0.25,
     "median over fresh processes of imports + ring build + system "
     "construction + trace generation + scheduling, host seconds"),
)

_COUNTERS = (
    ("sim.events_per_op", "events/op", "lower"),
    ("overlay.network.dropped", "count", "lower"),
    ("overlay.network.lost", "count", "lower"),
    ("overlay.pub_hops_mean", "msgs/req", "lower"),
    ("overlay.sub_msgs_mean", "msgs/req", "lower"),
    ("overlay.notif_hops_mean", "msgs/req", "lower"),
    ("overlay.path_hops_p99", "hops", "lower"),
    ("overlay.table_rebuilds", "count", "lower"),
    ("overlay.table_patches", "count", "lower"),
    ("overlay.table_seeds", "count", "lower"),
    ("core.mappings.keys_per_sub", "keys/op", "lower"),
    ("core.mappings.keys_per_pub", "keys/op", "lower"),
    ("core.rendezvous.stored_max_per_node", "count", "lower"),
    ("core.system.notifications_per_pub", "1/op", "higher"),
    ("matching.match_calls_per_pub", "1/op", "lower"),
    ("matching.candidates_per_match", "count", "lower"),
    ("matching.hit_ratio", "fraction", "higher"),
    ("matching.cover_collapsed_share", "fraction", "higher"),
)

_HOST = (
    ("host.run_s", "s", "lower"),
    ("host.ops_per_s", "1/s", "higher"),
    ("host.run_spread", "ratio", "lower"),
    ("host.trace_overhead_ratio", "ratio", "lower"),
)


def _micro() -> list[tuple[str, str, str]]:
    rows = [
        ("sim.micro.events_per_s", "1/s", "higher"),
        ("overlay.network.micro.msgs_per_s", "1/s", "higher"),
        ("overlay.network.micro.calls_per_msg", "calls/op", "lower"),
    ]
    for overlay in ("chord", "pastry", "can"):
        prefix = f"overlay.{overlay}.micro"
        rows += [
            (f"{prefix}.lookups_per_s", "1/s", "higher"),
            (f"{prefix}.lookup_hops_n500", "msgs/req", "lower"),
            (f"{prefix}.calls_per_lookup", "calls/op", "lower"),
            (f"{prefix}.churn_ops_per_s", "1/s", "higher"),
        ]
    rows += [
        ("overlay.chord.micro.mcast_msgs_over_bound", "ratio", "lower"),
        ("overlay.chord.micro.mcast_dilation_over_log2n", "ratio", "lower"),
        ("overlay.chord.micro.calls_per_mcast_msg", "calls/op", "lower"),
        ("overlay.chord.micro.build_ring_s_n20k", "s", "lower"),
    ]
    for mapping in ("attribute-split", "keyspace-split", "selective-attribute"):
        prefix = f"core.mappings.micro.{mapping}"
        rows += [
            (f"{prefix}.sub_keys_per_s", "1/s", "higher"),
            (f"{prefix}.event_keys_per_s", "1/s", "higher"),
        ]
    rows.append((
        "core.mappings.micro.selective-attribute.disc256.sub_keys_per_s",
        "1/s", "higher",
    ))
    for engine in ("grid", "vector", "radix", "brute"):
        prefix = f"matching.micro.{engine}"
        rows += [
            (f"{prefix}.add_per_s", "1/s", "higher"),
            (f"{prefix}.match_per_s", "1/s", "higher"),
            (f"{prefix}.calls_per_match", "calls/op", "lower"),
        ]
    rows += [
        ("matching.micro.covering.put_per_s", "1/s", "higher"),
        ("matching.micro.covering.match_per_s", "1/s", "higher"),
        ("core.rendezvous.micro.put_per_s", "1/s", "higher"),
        ("core.rendezvous.micro.match_per_s", "1/s", "higher"),
        ("core.rendezvous.micro.purge_per_s", "1/s", "higher"),
        ("workload.micro.trace_ops_per_s", "1/s", "higher"),
    ]
    return rows


_OBSERVERS = (
    ("observers.tracing.extra_calls_per_op", "calls/op", "lower"),
    ("observers.load.extra_calls_per_op", "calls/op", "lower"),
    ("observers.audit.extra_calls_per_op", "calls/op", "lower"),
    ("observers.tracing.wall_ratio", "ratio", "lower"),
    ("observers.load.wall_ratio", "ratio", "lower"),
    ("observers.audit.wall_ratio", "ratio", "lower"),
    ("observers.off.calls_per_op", "calls/op", "lower"),
    ("observers.digest_neutral", "bool", "higher"),
)

_SHARD = (
    ("sim.shard.k1_digest_equals_serial", "bool", "higher"),
    ("sim.shard.k2_deterministic", "bool", "higher"),
    ("sim.shard.k2_wall_ratio", "ratio", "lower"),
    ("sim.shard.barrier_rounds", "count", "lower"),
    ("sim.shard.remote_msgs_share", "fraction", "lower"),
    ("sim.shard.load_imbalance", "ratio", "lower"),
    ("sim.shard.bytes_per_node_k2", "B/node", "lower"),
)

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    [(f"{layer}.calls_per_op", "calls/op", "lower") for layer in LAYERS]
    + [(f"{layer}.self_share", "fraction", "lower") for layer in LAYERS]
    + list(_COUNTERS)
    + list(_HOST)
    + _micro()
    + list(_OBSERVERS)
    + list(_SHARD)
)

UNITS = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def benchmark_json(workloads, run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these definitions imply."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
