"""A run makes no reference cycles: the cycle collector finds nothing.

Every object a run allocates is freed by reference counting alone, so
with the collector off for a whole run, under churn, replication,
§4.3.2's buffering and collecting, the tracer, the load meter and the
delivery auditor, a full collection afterwards frees no object.  What
a cycle the code makes would look like: one list that holds itself,
built per send, fails this test.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.audit import Auditor
from repro.core import PubSubConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.sim.rng import RandomStreams
from repro.telemetry import Telemetry
from repro.workload.spec import ChurnSpec
from repro.workload.trace import Trace

CHURN = ChurnSpec(
    join_period=2.0, leave_period=2.0, crash_period=5.0, min_ring_size=50
)


def run(config: ExperimentConfig):
    """Build and replay one churned, audited, traced run; return what it
    made, so it is still referenced when the collector looks."""
    sim, system = build_system(
        config, RandomStreams(config.seed), Telemetry()
    )
    auditor = Auditor(system)
    trace = Trace.generate(
        config.workload,
        RandomStreams(config.seed).stream("workload"),
        system.overlay.node_ids(),
        config.subscriptions,
        config.publications,
        churn=CHURN,
        churn_rng=random.Random(config.seed),
        keyspace_size=system.overlay.keyspace.size,
    )
    trace.replay(system)
    return sim, system, auditor, auditor.finalize()


@pytest.mark.parametrize("overlay", ["chord", "can", "pastry"])
def test_a_churned_audited_run_leaves_no_cyclic_garbage(overlay):
    config = ExperimentConfig(
        overlay=overlay, nodes=100, subscriptions=40, publications=40,
        seed=20261020,
        pubsub=PubSubConfig(replication_factor=2, notification="collected"),
    )
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        made = run(config)
        freed = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    _, system, _, report = made
    assert report.publications_audited > 0  # the auditor did run
    assert system.recorder.messages.total_sends() > 0
    assert freed == 0
