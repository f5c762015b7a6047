"""Experiment configuration validation and derivation."""

import pytest

from repro.core.system import RoutingMode
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.workload.spec import WorkloadSpec


def test_paper_defaults():
    config = ExperimentConfig()
    assert config.nodes == 500
    assert config.key_bits == 13
    assert config.message_delay == 0.05
    assert config.workload.matching_probability == 0.5


def test_pubsub_config_derivation():
    config = ExperimentConfig(
        routing=RoutingMode.UNICAST,
        buffering=True,
        collecting=True,
        buffer_period=10.0,
        replication_factor=2,
        workload=WorkloadSpec(subscription_ttl=99.0),
    )
    derived = config.pubsub_config()
    assert derived.routing is RoutingMode.UNICAST
    assert derived.buffering and derived.collecting
    assert derived.buffer_period == 10.0
    assert derived.default_ttl == 99.0
    assert derived.replication_factor == 2


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
