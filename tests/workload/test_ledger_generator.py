"""The src generator equals the performance ledger's, op for op.

``benchmarks/ledger/workloads.py`` (read here, never edited) turns a seed
into ``churn-chord``'s op list with its own churn schedule and merge.
``Trace.generate`` given the same spec, counts, churn values and the
ledger's three seeded streams must emit the same sequence: that is what
lets the ledger shrink to specs without moving a fingerprint, and what
lets a tier-1 test build ``churn-chord``'s crash-only and churn-only
controls from ``src/`` alone.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.workload.spec import ChurnSpec
from repro.workload.trace import Trace

LEDGER_WORKLOADS = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"
)


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger_workloads", LEDGER_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def content(op):
    return (
        op.time, op.kind, op.node,
        op.subscription.constraints if op.subscription else None,
        op.event.values if op.event else None,
        op.ttl,
    )


@pytest.mark.parametrize("seed", [1, 20261003])
def test_generate_equals_the_ledgers_churn_chord_inputs(ledger, seed):
    workload = ledger.WORKLOADS["churn-chord"].scaled(0.1)
    plan = workload.churn
    ring_ids = ledger.ring_ids_for(workload, seed)
    inputs = ledger.generate_inputs(workload, seed, ring_ids)
    protected = sorted(ring_ids)[:: max(1, workload.nodes // plan.protected)]
    protected = protected[: plan.protected]
    trace = Trace.generate(
        workload.spec,
        random.Random(f"{seed}:{workload.name}:trace"),
        sorted(ring_ids),
        workload.subscriptions,
        workload.publications,
        churn=ChurnSpec(
            plan.join_period, plan.leave_period, plan.crash_period,
            min_ring_size=plan.floor,
        ),
        churn_rng=random.Random(f"{seed}:{workload.name}:churn"),
        protected=protected,
        keyspace_size=1 << workload.key_bits,
    )
    assert {op.kind for op in trace.ops} == {"sub", "pub", "join", "leave", "crash"}
    assert [content(op) for op in trace.ops] == [content(op) for op in inputs.ops]
    assert frozenset(protected) == inputs.protected
    assert trace.horizon(workload.config.buffer_period) == inputs.horizon
