"""The shard execution profiler: accounting identity, laggard
attribution, event conservation, the traffic matrix, JSONL v4
round-trip, Perfetto tracks, profiling-off neutrality, and the
rebalance advisor actually reducing barrier stalls on a skewed
workload.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.fingerprint import behavior_digest
from repro.sim.rng import RandomStreams
from repro.sim.shard import (
    load_imbalance_ratio,
    partition_ring,
    ring_node_ids,
    run_sharded,
)
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    FORMAT_VERSION,
    load_jsonl,
    to_chrome_trace,
    write_jsonl,
)
from repro.telemetry.profile import (
    ShardProfiler,
    build_shard_report,
    render_shard_report,
    suggest_cuts,
)
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


def _make_trace(config: ExperimentConfig) -> Trace:
    streams = RandomStreams(config.seed)
    return Trace.generate(
        config.workload,
        streams.stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )


# -- suggest_cuts (the rebalance advisor's partitioner) ----------------------


def test_suggest_cuts_equalizes_skewed_load():
    # Node 0 carries half the traffic; a 2-way cut must isolate it.
    ids = list(range(10))
    loads = {0: 50, **{n: 50 / 9 for n in range(1, 10)}}
    assert suggest_cuts(ids, loads, 2) == [0, 1]


def test_suggest_cuts_balanced_load_matches_equal_split():
    ids = list(range(12))
    loads = {n: 7 for n in ids}
    assert suggest_cuts(ids, loads, 3) == [0, 4, 8]


def test_suggest_cuts_keeps_every_arc_nonempty():
    # All load on the last node: naive quantile cuts would collapse the
    # leading arcs to zero nodes; the clamp must keep one node each.
    ids = list(range(6))
    loads = {5: 100}
    cuts = suggest_cuts(ids, loads, 4)
    assert cuts[0] == 0
    assert all(b > a for a, b in zip(cuts, cuts[1:]))
    assert cuts[-1] <= len(ids) - 1  # last arc non-empty too


def test_suggest_cuts_zero_load_falls_back_to_equal_split():
    assert suggest_cuts(list(range(10)), {}, 3) == [0, 3, 6]
    assert suggest_cuts(list(range(10)), {n: 0 for n in range(10)}, 2) \
        == [0, 5]


def test_suggest_cuts_rejects_more_shards_than_nodes():
    with pytest.raises(ValueError):
        suggest_cuts([1, 2], {1: 1.0}, 3)


def test_suggest_cuts_unsorted_ids_use_ring_order():
    ids = [30, 10, 20, 40]
    loads = {10: 97, 20: 1, 30: 1, 40: 1}
    assert suggest_cuts(ids, loads, 2) == [0, 1]


# -- partition_ring with explicit cuts ---------------------------------------


def test_partition_ring_honors_explicit_cuts():
    ids = list(range(100, 110))
    locals_, shard_of = partition_ring(ids, 3, cuts=[0, 2, 7])
    assert [len(arc) for arc in locals_] == [2, 5, 3]
    assert locals_[0] == frozenset({100, 101})
    assert shard_of[106] == 1
    assert shard_of[107] == 2


@pytest.mark.parametrize(
    "cuts",
    [
        [0, 5],            # wrong length for 3 shards
        [1, 4, 7],         # must start at 0
        [0, 4, 4],         # not strictly increasing
        [0, 4, 10],        # start offset out of range
    ],
)
def test_partition_ring_rejects_bad_cuts(cuts):
    with pytest.raises(ConfigurationError):
        partition_ring(list(range(10)), 3, cuts=cuts)


# -- one profiled run, shared across the accounting tests --------------------


@pytest.fixture(scope="module")
def profiled_run():
    config = ExperimentConfig(
        nodes=200, subscriptions=80, publications=80, seed=20260808,
    )
    trace = _make_trace(config)
    profiler = ShardProfiler(2)
    telemetry = Telemetry()
    outcome = run_sharded(
        config, trace, 2, mode="inline", telemetry=telemetry,
        profile=profiler,
    )
    return config, trace, profiler, telemetry, outcome


def test_profiler_records_every_barrier_round(profiled_run):
    _, _, profiler, _, outcome = profiled_run
    assert len(profiler.rounds) == outcome.barrier_rounds
    assert outcome.profile is profiler


def test_busy_plus_stall_equals_wall_per_round(profiled_run):
    # The accounting identity (ISSUE acceptance: within 5%; it holds
    # exactly by construction — stall is defined as wall - busy).
    _, _, profiler, _, _ = profiled_run
    for record in profiler.rounds:
        for shard in range(2):
            busy = record.busy_s[shard]
            stall = record.stall_s(shard)
            assert busy + stall == pytest.approx(record.wall_s, rel=0.05)
            assert stall >= 0.0


def test_laggard_named_for_every_round(profiled_run):
    _, _, profiler, _, _ = profiled_run
    for record in profiler.rounds:
        laggard = record.laggard
        assert 0 <= laggard < 2
        assert record.busy_s[laggard] == max(record.busy_s)


def test_round_plus_finish_events_conserve_shard_totals(profiled_run):
    # Every event a worker fired is attributed to exactly one round or
    # the finish stretch — nothing double-counted, nothing dropped.
    _, _, profiler, _, outcome = profiled_run
    for shard in range(2):
        in_rounds = sum(r.events[shard] for r in profiler.rounds)
        assert in_rounds + profiler.finish_events[shard] \
            == outcome.events_per_shard[shard]


def test_traffic_matrix_sums_to_remote_messages(profiled_run):
    _, _, profiler, _, outcome = profiled_run
    total = sum(
        sum(sum(row) for row in record.sent) for record in profiler.rounds
    )
    assert total == outcome.remote_messages
    # Diagonal is empty: a shard never routes to itself via the barrier.
    for record in profiler.rounds:
        for shard in range(2):
            assert record.sent[shard][shard] == 0


def test_critical_path_identity_and_shares(profiled_run):
    _, _, profiler, _, _ = profiled_run
    path = profiler.critical_path()
    wall = path.total_wall_s
    for shard in range(2):
        accounted = (
            path.busy_s[shard]
            + path.barrier_wait_s[shard]
            + path.pipe_s[shard]
        )
        assert accounted == pytest.approx(wall, rel=0.05)
    assert path.dominant_phase in ("compute", "barrier", "pipe")
    assert sum(path.laggard_rounds) == path.rounds
    assert all(0.0 <= u <= 1.0 for u in path.lookahead_utilization)


def test_advisor_prediction_matches_measured_load(profiled_run):
    # Per-node one-hop sends are partition-invariant (routing geometry
    # sees the full ring regardless of arc assignment), so the measured
    # load re-aggregated under the *current* cuts must reproduce the
    # coordinator's own load_by_shard exactly.
    _, _, profiler, _, outcome = profiled_run
    predicted = profiler.predicted_load_by_shard(profiler.cuts)
    assert [int(v) for v in predicted] == list(outcome.load_by_shard)
    assert sum(profiler.node_loads.values()) == sum(outcome.load_by_shard)


# -- JSONL v4 round-trip and report rendering --------------------------------


def test_profile_records_roundtrip_jsonl_v4(profiled_run, tmp_path):
    _, _, profiler, telemetry, _ = profiled_run
    path = tmp_path / "profiled.jsonl"
    write_jsonl(telemetry, path)
    dump = load_jsonl(path)
    assert dump.meta["version"] == FORMAT_VERSION == 4
    assert dump.profiles  # profile records survived the round-trip
    scopes = {record["scope"] for record in dump.profiles}
    assert scopes == {"run", "advice", "shard", "round"}
    run = next(r for r in dump.profiles if r["scope"] == "run")
    assert run["rounds"] == len(profiler.rounds)
    shards = [r for r in dump.profiles if r["scope"] == "shard"]
    assert [r["shard"] for r in sorted(shards, key=lambda r: r["shard"])] \
        == [0, 1]
    rounds = [r for r in dump.profiles if r["scope"] == "round"]
    assert len(rounds) == len(profiler.rounds)

    report = build_shard_report(dump)
    assert report is not None
    text = render_shard_report(report, source=str(path))
    assert "shard execution profile" in text
    assert "stall attribution" in text
    assert "rebalance advisor" in text


def test_build_shard_report_accepts_plain_record_list(profiled_run):
    _, _, profiler, _, _ = profiled_run
    report = build_shard_report(profiler.profile_records())
    assert report is not None
    assert report["run"]["num_shards"] == 2
    assert len(report["shards"]) == 2


def test_build_shard_report_none_without_profile_records():
    assert build_shard_report([]) is None


def test_chrome_trace_has_per_shard_wall_clock_tracks(profiled_run):
    _, _, _, telemetry, _ = profiled_run
    trace = to_chrome_trace(telemetry)
    events = trace["traceEvents"]
    names = {
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e["name"] in ("process_name", "thread_name")
    }
    assert "shard execution (wall clock)" in names
    assert {"shard 0", "shard 1"} <= names
    slices = [
        e for e in events
        if e.get("ph") == "X" and e.get("cat") == "shard"
    ]
    assert {e["name"] for e in slices} >= {"busy", "stall"}
    assert {e["tid"] for e in slices} == {0, 1}
    counters = {
        e["name"] for e in events
        if e.get("ph") == "C" and e.get("pid") == 2
    }
    assert counters == {
        "shard.window_width", "shard.window_events", "shard.window_remote",
    }
    json.dumps(trace)  # the whole thing must serialize


# -- profiling-off neutrality ------------------------------------------------


def test_profiled_run_matches_unprofiled_digest():
    config = ExperimentConfig(
        nodes=120, subscriptions=50, publications=50, seed=7,
    )
    trace = _make_trace(config)
    plain = run_sharded(config, trace, 2, mode="inline")
    profiled = run_sharded(
        config, trace, 2, mode="inline", profile=ShardProfiler(2)
    )
    assert behavior_digest(plain.recorder) == behavior_digest(
        profiled.recorder
    )
    assert plain.barrier_stalls == profiled.barrier_stalls
    assert plain.load_by_shard == profiled.load_by_shard


def test_profiler_shard_count_must_match():
    config = ExperimentConfig(nodes=60, subscriptions=10, publications=10)
    trace = _make_trace(config)
    with pytest.raises(ConfigurationError):
        run_sharded(config, trace, 2, mode="inline",
                    profile=ShardProfiler(3))


# -- the advisor's cuts actually help (ISSUE acceptance) ---------------------


def _skewed_config(**overrides) -> ExperimentConfig:
    """Flash-crowd-style skew: Zipf-2.0 selective ranges with high
    temporal locality concentrate rendezvous traffic on a few keys."""
    return ExperimentConfig(
        nodes=300, subscriptions=100, publications=250, seed=11,
        discretization_width=16, matcher="vector",
        workload=WorkloadSpec(
            selective_attributes=(0, 1), zipf_exponent=2.0,
            temporal_locality=0.9, constraint_probability=0.5,
        ),
        **overrides,
    )


# The skew the two tests below need, stated rather than left to how many
# hops routing happens to spend near the hot keys: shard 0 holds 90 of
# the 300 nodes (the default cuts give each shard 37 or 38), on top of
# the workload's hot keys.
_SKEWED_CUTS = (0, 90, 120, 150, 180, 210, 240, 270)


def test_advisor_cuts_reduce_barrier_stalls_on_skewed_workload():
    config = _skewed_config()
    trace = _make_trace(config)
    profiler = ShardProfiler(8)
    baseline = run_sharded(
        config, trace, 8, mode="inline", profile=profiler, cuts=_SKEWED_CUTS
    )
    assert baseline.load_imbalance > 2.0  # the run really is skewed

    cuts = profiler.suggest_partition()
    rebalanced = run_sharded(config, trace, 8, mode="inline", cuts=cuts)

    # Same simulated run — rebalancing only moves arc boundaries, and
    # the behavior digest is partition-invariant (it equals the serial
    # digest under any cuts; request ids, which do follow the shard a
    # node lands on, are not in it).  Kernel events are not: a worker
    # fires one per arrival instant it has traffic on, so their total
    # moves with the cuts.
    assert behavior_digest(rebalanced.recorder) == behavior_digest(
        baseline.recorder
    )
    assert sum(rebalanced.load_by_shard) == sum(baseline.load_by_shard)
    # Traffic-weighted cuts flatten the skew and idle fewer windows.
    assert rebalanced.load_imbalance < baseline.load_imbalance
    assert rebalanced.barrier_stalls < baseline.barrier_stalls


def test_imbalance_warning_becomes_structured_telemetry_record():
    config = _skewed_config()
    trace = _make_trace(config)
    telemetry = Telemetry()
    outcome = run_sharded(config, trace, 8, mode="inline",
                          telemetry=telemetry, cuts=_SKEWED_CUTS)
    assert outcome.load_imbalance > 2.0
    records = telemetry.load.shard_imbalances
    assert len(records) == 1
    record = records[0]
    assert record["scope"] == "shard"
    assert record["ratio"] == pytest.approx(outcome.load_imbalance)
    assert record["loads"] == list(outcome.load_by_shard)
    assert record["shard"] == outcome.load_by_shard.index(
        max(outcome.load_by_shard)
    )
    assert record["threshold"] == 2.0


# -- load_imbalance_ratio edge cases -----------------------------------------


def test_load_imbalance_ratio_single_shard_is_unity():
    assert load_imbalance_ratio([42]) == 1.0


def test_load_imbalance_ratio_zero_traffic_shard():
    # Median of [0, 10, 10] is 10 -> ratio 1.0 even with an idle shard;
    # a *majority*-idle ring (median 0) reports 0.0, not a div-by-zero.
    assert load_imbalance_ratio([10, 0, 10]) == 1.0
    assert load_imbalance_ratio([10, 0, 0]) == 0.0
