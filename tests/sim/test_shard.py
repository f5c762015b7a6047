"""The sharded kernel: window primitives, partitioning, parity.

The contract under test (see ``repro/sim/shard.py``): K shards
reproduce a serial :meth:`Trace.replay` of the same trace **bit for
bit** (behavior digest over every send, trace and delivery), for every
K, for all three overlays and in both worker modes (inline and fork).
The serial replay runs under the delivery-oracle auditor and must be
clean; the digest pins every delivery's (node, time), so equal digests
carry that verdict over to the sharded run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import AuditConfig, Auditor
from repro.core.system import RoutingMode
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, generate_trace
from repro.metrics.fingerprint import behavior_digest
from repro.metrics.recorder import MetricsRecorder
from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.network import FixedDelay, ShardNetwork
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import partition_ring, ring_node_ids, run_sharded
from repro.workload.spec import ChurnSpec, WorkloadSpec
from repro.workload.trace import Trace


# -- kernel window primitives ------------------------------------------------


def test_next_event_time_peeks_without_firing():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "a")
    sim.schedule_at(1.0, fired.append, "b")
    assert sim.next_event_time() == 1.0
    assert sim.next_event_time() == 1.0  # idempotent peek
    assert fired == []
    assert sim.now == 0.0


def test_next_event_time_empty():
    assert Simulator().next_event_time() is None


def test_run_before_fires_strictly_below_bound():
    sim = Simulator()
    fired = []
    for time in (1.0, 2.0, 3.0):
        sim.schedule_at(time, fired.append, time)
    assert sim.run_before(3.0) == 2
    assert fired == [1.0, 2.0]
    # The clock stays at the last fired event, never at the bound:
    # remote messages may still be injected at exactly the bound.
    assert sim.now == 2.0
    assert sim.next_event_time() == 3.0


def test_run_before_processes_events_scheduled_during_window():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        sim.schedule_at(sim.now + 0.4, chain)

    sim.schedule_at(0.1, chain)
    sim.run_before(1.0)
    assert fired == [0.1, 0.5, 0.9]


def test_run_before_rejects_past_bound():
    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_before(4.0)


# -- ring partitioning -------------------------------------------------------


def test_partition_ring_contiguous_and_complete():
    rng = random.Random(3)
    ids = rng.sample(range(8192), 100)
    locals_, shard_of = partition_ring(ids, 4)
    assert sum(len(arc) for arc in locals_) == 100
    assert set().union(*locals_) == set(ids)
    ordered = sorted(ids)
    # Each arc is a contiguous run of the sorted ring.
    start = 0
    for shard, arc in enumerate(locals_):
        run = ordered[start:start + len(arc)]
        assert set(run) == arc
        assert all(shard_of[node] == shard for node in run)
        start += len(arc)


def test_partition_ring_near_equal_sizes():
    locals_, _ = partition_ring(list(range(10)), 3)
    assert sorted(len(arc) for arc in locals_) == [3, 3, 4]


def test_partition_ring_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        partition_ring([1, 2, 3], 0)
    with pytest.raises(ConfigurationError):
        partition_ring([1, 2, 3], 4)


# -- shard network -----------------------------------------------------------


def _message(kind=MessageKind.CONTROL):
    return OverlayMessage(kind=kind, payload=None, request_id=1, origin=7)


def test_shard_network_outboxes_remote_charges_send():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({1}))
    got = []
    network.register(1, got.append)
    network.transmit(1, 99, _message())  # 99 is remote
    assert network.recorder.messages.total_sends(MessageKind.CONTROL) == 1
    outbox = network.drain_outbox()
    assert [(dst, arrival) for dst, arrival, _ in outbox] == [(99, 0.05)]
    assert network.drain_outbox() == []  # drained
    sim.run()
    assert got == []  # nothing entered the local inbox


def test_shard_network_local_transmit_unchanged():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({1, 2}))
    got = []
    network.register(2, got.append)
    message = _message()
    network.transmit(1, 2, message)
    sim.run()
    assert got == [message]
    assert network.drain_outbox() == []


def test_shard_network_inject_delivers_in_merge_order():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({5}))
    got = []
    network.register(5, got.append)
    first, second = _message(), _message()
    network.inject([(5, 1.0, first), (5, 1.0, second)])
    sim.run()
    assert got == [first, second]
    assert sim.now == 1.0


# -- serial parity and determinism ------------------------------------------


_make_trace = generate_trace


def _serial_digest(config: ExperimentConfig, trace: Trace) -> str:
    """The serial replay's digest, after its audit came back clean."""
    _, system = build_system(config, RandomStreams(config.seed))
    auditor = Auditor(system, AuditConfig())
    trace.replay(system)
    assert auditor.finalize().violations == []
    return behavior_digest(system.recorder)


@pytest.mark.parametrize("overlay", ["chord", "pastry", "can"])
def test_one_shard_reproduces_serial_replay(overlay):
    config = ExperimentConfig(
        overlay=overlay, nodes=500, subscriptions=200, publications=200,
        seed=20260808,
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 1, mode="inline")
    assert behavior_digest(outcome.recorder) == _serial_digest(config, trace)
    assert outcome.barrier_rounds == 0  # a lone shard never barriers
    assert outcome.remote_messages == 0


@pytest.mark.parametrize("overlay", ["chord", "pastry", "can"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_runs_deterministic_and_audit_clean(overlay, shards):
    config = ExperimentConfig(
        overlay=overlay, nodes=500, subscriptions=150, publications=150,
        seed=20260808,
    )
    trace = _make_trace(config)
    first = run_sharded(config, trace, shards, mode="fork")
    again = run_sharded(config, trace, shards, mode="fork")
    inline = run_sharded(config, trace, shards, mode="inline")
    digest = behavior_digest(first.recorder)
    assert digest == _serial_digest(config, trace)
    assert digest == behavior_digest(again.recorder)
    assert digest == behavior_digest(inline.recorder)
    assert first.remote_messages > 0  # the workload does cross shards
    assert sum(first.events_per_shard) > 0
    # Every trace and delivery accounted for across the shard merge.
    assert len(first.recorder.messages.requests_of_kind(
        MessageKind.PUBLICATION
    )) == config.publications


def test_per_shard_load_totals_sum_to_merged_sends():
    config = ExperimentConfig(
        nodes=200, subscriptions=80, publications=80, seed=20260808,
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 3, mode="inline")
    assert len(outcome.load_by_shard) == 3
    # Per-shard loads are the pre-merge recorder send counts, so their
    # sum must equal the merged recorder's total exactly.
    assert sum(outcome.load_by_shard) == outcome.recorder.messages.total_sends()
    assert outcome.load_imbalance >= 1.0
    # ... and equal the serial replay's total: sharding moves work
    # between workers but never changes what the simulation sends.
    _, system = build_system(config, RandomStreams(config.seed))
    trace.replay(system)
    assert sum(outcome.load_by_shard) == system.recorder.messages.total_sends()


def test_load_imbalance_ratio():
    from repro.sim.shard import ShardRunReport

    def report(loads):
        return ShardRunReport(
            recorder=MetricsRecorder(), num_shards=len(loads),
            barrier_rounds=0, remote_messages=0,
            barrier_stalls=0, events_per_shard=[], peak_rss_by_shard=[],
            load_by_shard=loads,
        )

    assert report([]).load_imbalance == 0.0
    assert report([0, 0]).load_imbalance == 0.0
    assert report([10, 10, 10]).load_imbalance == 1.0
    # Median of [2, 10, 30] is 10; max/median = 3.
    assert report([30, 2, 10]).load_imbalance == 3.0
    # Even count averages the middle two: median of [1, 3] is 2.
    assert report([1, 3]).load_imbalance == 1.5


def test_sharded_storage_snapshots_cover_all_nodes():
    config = ExperimentConfig(
        nodes=120, subscriptions=80, publications=40, seed=11,
        workload=WorkloadSpec(subscription_ttl=None),
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 3, mode="inline")
    final = outcome.recorder.storage.latest()
    assert len(final) == config.nodes
    assert sum(final.values()) > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    overlay=st.sampled_from(["chord", "pastry", "can"]),
    shards=st.integers(min_value=2, max_value=4),
    routing=st.sampled_from(list(RoutingMode)),
    notification=st.sampled_from(["direct", "buffering", "collecting"]),
    replication_factor=st.integers(min_value=0, max_value=2),
)
def test_shard_property_small_rings(
    seed, overlay, shards, routing, notification, replication_factor
):
    """K-shard == serial, for K=1 and K>1, on randomized small configurations."""
    config = ExperimentConfig(
        overlay=overlay, nodes=60, subscriptions=40, publications=30,
        seed=seed, routing=routing,
        buffering=notification != "direct",
        collecting=notification == "collecting",
        replication_factor=replication_factor,
    )
    trace = _make_trace(config)
    serial = _serial_digest(config, trace)
    one = run_sharded(config, trace, 1, mode="inline")
    assert behavior_digest(one.recorder) == serial
    many = run_sharded(config, trace, shards, mode="inline")
    assert behavior_digest(many.recorder) == serial


# -- argument checks -------------------------------------------------------


def test_run_sharded_rejects_zero_delay_and_bad_mode():
    config = ExperimentConfig(nodes=20, subscriptions=5, publications=5)
    trace = _make_trace(config)
    zero_delay = ExperimentConfig(
        nodes=20, subscriptions=5, publications=5, message_delay=0.0
    )
    with pytest.raises(ConfigurationError):
        run_sharded(zero_delay, trace, 2, mode="inline")
    with pytest.raises(ConfigurationError):
        run_sharded(config, trace, 2, mode="threads")


@pytest.mark.parametrize("shards", [1, 2])
def test_run_sharded_rejects_a_churn_trace(shards):
    """A worker's arc is fixed for the run: membership ops are refused
    up front, not silently dropped at a frozen shard boundary."""
    config = ExperimentConfig(nodes=20, subscriptions=5, publications=5)
    trace = Trace.generate(
        config.workload, random.Random(1), ring_node_ids(config), 5, 5,
        churn=ChurnSpec(join_period=2.0), churn_rng=random.Random(2),
        keyspace_size=1 << config.key_bits,
    )
    assert any(op.kind == "join" for op in trace.ops)
    with pytest.raises(ConfigurationError, match="op .* is a 'join'"):
        run_sharded(config, trace, shards, mode="inline")

