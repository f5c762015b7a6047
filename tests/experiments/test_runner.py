"""The experiment runner: determinism, result plumbing, kernel parity."""

import dataclasses

import pytest

from repro.core.system import PubSubConfig, RoutingMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    RunResult,
    generate_trace,
    run_experiment,
    summarize_run,
)
from repro.metrics.fingerprint import behavior_fingerprint
from repro.sim.shard import run_sharded
from repro.workload.spec import WorkloadSpec


def small_config(**overrides):
    defaults = dict(
        mapping="selective-attribute",
        nodes=100,
        subscriptions=40,
        publications=40,
        workload=WorkloadSpec(subscription_ttl=None),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_produces_complete_result():
    result = run_experiment(small_config())
    assert result.subscriptions_sent == 40
    assert result.publications_sent == 40
    assert result.sub_hops.count == 40
    assert result.pub_hops.count == 40
    assert result.keys_per_subscription > 1
    assert result.keys_per_publication == 4.0  # selective-attribute: d keys
    assert result.max_subscriptions_per_node >= 1
    assert result.mean_subscriptions_per_node > 0


def test_same_seed_same_results():
    a = run_experiment(small_config(seed=7))
    b = run_experiment(small_config(seed=7))
    assert a.sub_hops == b.sub_hops
    assert a.pub_hops == b.pub_hops
    assert a.max_subscriptions_per_node == b.max_subscriptions_per_node
    assert a.notification_messages == b.notification_messages


def test_different_seed_different_results():
    a = run_experiment(small_config(seed=7))
    b = run_experiment(small_config(seed=8))
    assert (
        a.sub_hops != b.sub_hops
        or a.max_subscriptions_per_node != b.max_subscriptions_per_node
    )


def test_notification_hops_per_publication():
    result = run_experiment(small_config())
    assert result.notification_hops_per_publication >= 0.0


def test_zero_publications():
    result = run_experiment(small_config(publications=0))
    assert result.publications_sent == 0
    assert result.notification_hops_per_publication == 0.0
    assert result.keys_per_publication == 0.0


# -- same seed, same flags, same answer: the kernel is not part of the run --

#: Everything a figure or the CLI table reads.
SUMMARY_FIELDS = [
    field.name
    for field in dataclasses.fields(RunResult)
    if field.name not in ("config", "recorder")
]


@pytest.mark.parametrize(
    "notification", ["direct", "buffered"], ids=["direct", "buffering"]
)
@pytest.mark.parametrize("routing", [RoutingMode.MCAST, RoutingMode.UNICAST])
@pytest.mark.parametrize("overlay", ["chord", "can", "pastry"])
def test_sharded_run_equals_serial_run(overlay, routing, notification):
    config = small_config(
        overlay=overlay, nodes=60, subscriptions=30, publications=30,
        seed=20260921, workload=WorkloadSpec(subscription_ttl=60.0),
        pubsub=PubSubConfig(routing=routing, notification=notification),
    )
    serial = run_experiment(config)
    assert serial.max_subscriptions_per_node > 0
    assert serial.notification_delay.count > 0
    trace = generate_trace(config)
    for shards in (2, 3):
        outcome = run_sharded(config, trace, shards)
        assert outcome.num_shards == shards
        assert outcome.remote_messages > 0
        sharded = summarize_run(config, trace, outcome.recorder)
        assert behavior_fingerprint(sharded.recorder) == behavior_fingerprint(
            serial.recorder
        )
        for name in SUMMARY_FIELDS:
            assert getattr(sharded, name) == getattr(serial, name), name


def test_long_buffer_period_still_flushes_before_the_horizon():
    """The slack derives from the buffer period: a period longer than
    the 60 s floor delivers what the unbuffered run delivers."""
    direct = run_experiment(small_config(seed=3))
    slow = run_experiment(small_config(
        seed=3, pubsub=PubSubConfig(notification="buffered", buffer_period=90.0)
    ))
    assert direct.notification_delay.count > 0
    assert slow.notification_delay.count == direct.notification_delay.count
    assert slow.notification_delay.mean > direct.notification_delay.mean


def test_one_seed_is_one_workload():
    config = small_config(seed=11)
    again = dataclasses.replace(config, mapping="keyspace-split")
    ops = [(op.time, op.kind, op.node) for op in generate_trace(config).ops]
    assert ops == [(op.time, op.kind, op.node) for op in generate_trace(again).ops]
