"""Shard legs: the sharded kernel against the serial one on one trace.

All five workloads are serial, so a change to ``repro.sim.shard`` moves
no end-to-end metric; it is judged on these rows.  The K=2 leg is the
only place the benchmark keeps two processes busy at once.
"""

from __future__ import annotations

import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.metrics.fingerprint import behavior_digest
from repro.sim.rng import RandomStreams
from repro.sim.shard import ring_node_ids, run_sharded
from repro.workload.trace import Trace

NODES = 4000
SUBSCRIPTIONS = 50
PUBLICATIONS = 250


def run_shard_legs(seed: int, scale: float = 1.0) -> dict[str, float]:
    """Serial replay, K=1 and two K=2 runs of one n=4000 trace."""
    config = ExperimentConfig(
        nodes=max(64, int(NODES * scale)),
        seed=seed,
        subscriptions=max(20, int(SUBSCRIPTIONS * scale)),
        publications=max(50, int(PUBLICATIONS * scale)),
    )
    streams = RandomStreams(config.seed)
    trace = Trace.generate(
        config.workload,
        streams.stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )
    _, system = build_system(config, RandomStreams(config.seed))
    trace.replay(system)
    serial = behavior_digest(system.recorder)

    def sharded(k: int):
        start = time.perf_counter()
        report = run_sharded(config, trace, k, mode="fork")
        return report, time.perf_counter() - start

    k1, k1_wall = sharded(1)
    k2, k2_wall = sharded(2)
    k2_again, k2_wall_again = sharded(2)
    total_sends = k2.recorder.messages.total_sends()
    return {
        "sim.shard.k1_digest_equals_serial": int(
            behavior_digest(k1.recorder) == serial
        ),
        "sim.shard.k2_deterministic": int(
            behavior_digest(k2.recorder) == behavior_digest(k2_again.recorder)
        ),
        "sim.shard.k2_wall_ratio": min(k2_wall, k2_wall_again) / k1_wall,
        "sim.shard.barrier_rounds": k2.barrier_rounds,
        "sim.shard.remote_msgs_share": k2.remote_messages / total_sends,
        "sim.shard.load_imbalance": k2.load_imbalance,
        "sim.shard.bytes_per_node_k2": sum(k2.peak_rss_by_shard) / config.nodes,
    }
