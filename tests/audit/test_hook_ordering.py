"""The audit hooks must fire before the request is sent.

When the subscriber, the publisher and the owner of the intersecting
rendezvous key are one node, the publication is delivered, matched and
notified synchronously *inside* ``publish`` (zero hops).  With the hook
called after the send, that arrival reached the oracle before the
publication was pending and was later reported ``notification-missed``.
The two seeds below are the ROADMAP's serial repro of exactly that.
"""

from __future__ import annotations

import pytest

from repro.audit import AuditConfig, Auditor
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.sim.rng import RandomStreams
from repro.sim.shard import ring_node_ids
from repro.workload.trace import Trace

SEEDS = (10000001, 40)


def _case(seed: int) -> tuple[ExperimentConfig, Trace]:
    config = ExperimentConfig(
        overlay="chord", nodes=60, subscriptions=40, publications=30, seed=seed
    )
    trace = Trace.generate(
        config.workload,
        RandomStreams(seed).stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )
    return config, trace


@pytest.mark.parametrize("seed", SEEDS)
def test_self_rendezvous_publication_is_not_reported_missed(seed):
    config, trace = _case(seed)
    _, system = build_system(config, RandomStreams(seed))
    auditor = Auditor(system, AuditConfig())
    trace.replay(system)
    report = auditor.finalize()
    assert report.violations == []
    assert report.deliveries_true > 0
