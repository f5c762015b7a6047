"""Edge cases of the shard load-imbalance ratio a sharded run reports
as ``sim.shard.load_imbalance``: max shard load over median shard load.
"""

from __future__ import annotations

from repro.metrics.recorder import MetricsRecorder
from repro.sim.shard import ShardRunReport


def load_imbalance_ratio(loads: list[int]) -> float:
    return ShardRunReport(
        recorder=MetricsRecorder(), num_shards=len(loads),
        barrier_rounds=0, remote_messages=0,
        barrier_stalls=0, events_per_shard=[], peak_rss_by_shard=[],
        load_by_shard=loads,
    ).load_imbalance


def test_load_imbalance_ratio_single_shard_is_unity():
    assert load_imbalance_ratio([42]) == 1.0


def test_load_imbalance_ratio_zero_traffic_shard():
    # Median of [0, 10, 10] is 10 -> ratio 1.0 even with an idle shard;
    # a *majority*-idle ring (median 0) reports 0.0, not a div-by-zero.
    assert load_imbalance_ratio([10, 0, 10]) == 1.0
    assert load_imbalance_ratio([10, 0, 0]) == 0.0
