"""Experiment configuration validation and derivation."""

import dataclasses

import pytest

from repro.core.system import PubSubConfig, RoutingMode
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.sim.rng import RandomStreams
from repro.workload.spec import WorkloadSpec


def test_paper_defaults():
    config = ExperimentConfig()
    assert config.nodes == 500
    assert config.key_bits == 13
    assert config.message_delay == 0.05
    assert config.workload.matching_probability == 0.5


def test_pubsub_config_derivation():
    """The system a run builds holds ``config.pubsub`` as given: no
    setting is copied in from elsewhere, the workload TTL included."""
    pubsub = PubSubConfig(
        routing=RoutingMode.UNICAST,
        notification="collected",
        buffer_period=10.0,
        default_ttl=7.0,
        replication_factor=2,
        failure_detection_delay=0.3,
        matcher="radix",
        covering=False,
    )
    config = ExperimentConfig(
        nodes=40, workload=WorkloadSpec(subscription_ttl=99.0), pubsub=pubsub
    )
    _, system = build_system(config, RandomStreams(config.seed))
    assert system.config is pubsub
    assert system.config.failure_detection_delay == 0.3
    assert system.config.default_ttl == 7.0
    # Without a pubsub of its own, a run keeps the layer's defaults:
    # the workload stamps its TTL on each generated subscription instead.
    plain = ExperimentConfig(
        nodes=40, workload=WorkloadSpec(subscription_ttl=99.0)
    )
    _, system = build_system(plain, RandomStreams(plain.seed))
    assert system.config == PubSubConfig()
    assert system.config.default_ttl is None


def test_no_pubsub_setting_is_mirrored():
    """Each pub/sub setting has one home: ``ExperimentConfig.pubsub``."""
    mirrored = {f.name for f in dataclasses.fields(ExperimentConfig)} & {
        f.name for f in dataclasses.fields(PubSubConfig)
    }
    assert mirrored == set()
    assert not hasattr(ExperimentConfig, "pubsub_config")


def test_too_many_nodes_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(nodes=10_000, key_bits=13)


def test_discretization_sizing_rule():
    """Section 4.3.3: the event space's total interval count (the
    d-dimensional product) must exceed the node count."""
    # One interval per attribute -> 1 total interval < 500 nodes.
    with pytest.raises(ConfigurationError):
        ExperimentConfig(discretization_width=1_000_001, nodes=500)
    # 100 intervals per attribute -> 100^4 total: plenty.
    ExperimentConfig(discretization_width=10_000, nodes=500)
    # The paper's own Fig. 9(b) point: 20% of the average range.
    ExperimentConfig(discretization_width=3000, nodes=500)


def test_negative_cache_capacity_rejected():
    with pytest.raises(ConfigurationError, match="cache_capacity"):
        ExperimentConfig(cache_capacity=-1)
    assert ExperimentConfig(cache_capacity=0).cache_capacity == 0


def test_invalid_widths_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(discretization_width=0)
