"""The one definition of "same behaviour": every pinned fingerprint.

Three groups of seeded runs, each compared field by field with its
record in ``behavior_pins.json`` beside this file:

- eleven small scenarios over the three mappings (Mapping 3 also on
  Chord with the location cache off, which must stay the fingers-only
  m-cast it had before the origin read the cache: the record of the
  PR 22 tree), two matchers, the three overlays under churn (CAN also
  with its location cache off: greedy unicast and key-order m-cast
  alone) and a Zipf flash crowd, each one generated trace
  replayed on a fresh stack (seed strings ``20260805:…``; the digests
  date from PR 21, when ``Trace.generate`` became the one generator —
  CHANGES.md shows the earlier ones reproduce from the earlier ops);
- one n=4000 trace through the sharded kernel with one and with two
  forked workers (both read the serial kernel's digest; K=2 also pins
  the barrier merge's two exact counters);
- the five ledger workloads at ``--smoke`` scale, read through the
  ledger's own child entry, so the workloads every PR is judged on are
  pinned by a test.

A purely mechanical change leaves every record as it is.  A change that
moves a simulated outcome on purpose pastes the observed record, which
the failure prints, over the pinned one in the same commit and says in
CHANGES.md which metric moved and why.  Nothing here reads a clock.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from repro.core.mappings import make_mapping
from repro.core.system import PubSubConfig, PubSubSystem
from repro.experiments.config import ExperimentConfig
from repro.metrics.fingerprint import behavior_digest, behavior_fingerprint
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import ring_node_ids, run_sharded
from repro.telemetry import Telemetry
from repro.telemetry.loadreport import build_load_report
from repro.workload.spec import ChurnSpec, WorkloadSpec
from repro.workload.trace import Trace

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "behavior_pins.json").read_text())
LEDGER_RUN = HERE.parents[1] / "benchmarks" / "ledger" / "run.py"

SEED = 20260805
#: Spelled out here, not taken from ``ExperimentConfig.build_overlay``:
#: the module has to run unchanged against another tree's ``src/``.
OVERLAYS = {
    "chord": functools.partial(ChordOverlay, cache_capacity=128),
    # Cache off is the tree before an m-cast's origin read the cache
    # (PR 22): this row keeps that tree's steady cache-0 record.
    "chord/cache0": functools.partial(ChordOverlay, cache_capacity=0),
    "pastry": PastryOverlay,
    "can": CanOverlay,
    # Cache off: CAN routing with no location cache, greedy unicast and
    # key-order m-cast only.
    "can/cache0": functools.partial(CanOverlay, cache_capacity=0),
}


def check(name: str, observed: dict) -> None:
    """Compare with the pinned record; the failure prints a paste-ready line."""
    assert observed == PINS[name], (
        f"{name} no longer matches behavior_pins.json.\n"
        f"pinned:   {json.dumps(PINS[name], sort_keys=True)}\n"
        f"observed: {json.dumps(observed, sort_keys=True)}"
    )


# -- the eleven small scenarios ---------------------------------------------------


class Scenario(typing.NamedTuple):
    """One seeded run; ``ring``/``trace``/``churn`` are seed suffixes."""

    ring: str
    trace: str
    nodes: int
    subscriptions: int
    publications: int
    overlay: str = "chord"
    mapping: str = "selective-attribute"
    spec: WorkloadSpec = WorkloadSpec()
    config: PubSubConfig = PubSubConfig()
    churn: str | None = None
    load_metered: bool = False


EQDENSE = WorkloadSpec(selective_attributes=(0, 1, 2, 3), selective_range_fraction=1e-6)
REPLICATED = PubSubConfig(replication_factor=2, failure_detection_delay=0.3)
SCENARIOS = {
    **{
        f"n120-{mapping}": Scenario(
            f"120:{mapping}", f"driver:120:{mapping}", 120, 60, 120, mapping=mapping
        )
        for mapping in ("attribute-split", "keyspace-split", "selective-attribute")
    },
    "n120-selective-attribute/cache0": Scenario(
        "120:selective-attribute", "driver:120:selective-attribute", 120, 60, 120,
        overlay="chord/cache0",
    ),
    **{
        f"eqdense-{matcher}-n120": Scenario(
            f"eqdense:{matcher}:120", "eqdense-driver:120", 120, 60, 120,
            spec=EQDENSE, config=PubSubConfig(matcher=matcher),
        )
        for matcher in ("grid", "radix")
    },
    **{
        name: Scenario(
            f"churn:{tag}", f"churn-driver:{tag}", 100, 40, 80,
            overlay=overlay, config=REPLICATED, churn=f"churn-events:{tag}",
        )
        for name, overlay, tag in (
            ("churn-n100", "chord", "100"),
            ("churn-pastry-n100", "pastry", "pastry:100"),
            ("churn-can-n100", "can", "can:100"),
            ("churn-can-n100/cache0", "can/cache0", "can:100"),
        )
    },
    # Partially defined Zipf interest with celebrity publications: the
    # shape under which covering occurs at the hot rendezvous nodes.
    "flash-crowd-n2000": Scenario(
        "flash:2000", "flash-trace:2000", 2000, 400, 800,
        spec=WorkloadSpec(
            selective_attributes=(0, 1), zipf_exponent=1.6,
            temporal_locality=0.9, constraint_probability=0.5,
        ),
        load_metered=True,
    ),
}


def run_scenario(scenario: Scenario, **config_changes):
    """Build and run one scenario; returns (system, load meter or None)."""
    sim = Simulator()
    keyspace = KeySpace(13)
    telemetry = Telemetry() if scenario.load_metered else None
    overlay = OVERLAYS[scenario.overlay](
        sim, keyspace, network=Network(sim, telemetry=telemetry)
    )
    ring_rng = random.Random(f"{SEED}:{scenario.ring}")
    overlay.build_ring(ring_rng.sample(range(keyspace.size), scenario.nodes))
    mapping = make_mapping(scenario.mapping, scenario.spec.make_space(), keyspace)
    config = dataclasses.replace(scenario.config, **config_changes)
    system = PubSubSystem(sim, overlay, mapping, config)
    churn = {}
    if scenario.churn is not None:
        churn = dict(
            churn=ChurnSpec(
                join_period=2.0, leave_period=2.0, crash_period=10.0,
                min_ring_size=max(8, scenario.nodes // 2),
            ),
            churn_rng=random.Random(f"{SEED}:{scenario.churn}"),
            keyspace_size=keyspace.size,
        )
    Trace.generate(
        scenario.spec, random.Random(f"{SEED}:{scenario.trace}"),
        overlay.node_ids(), scenario.subscriptions, scenario.publications,
        **churn,
    ).replay(system)
    return system, telemetry.load if telemetry is not None else None


def matching(load) -> dict:
    """The ``matching`` section ``repro report`` builds from the meter's
    exported ``load`` records."""
    dump = {"load": load.load_records(), "skew": [], "overload": []}
    return build_load_report(dump)["matching"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_fingerprint(name):
    scenario = SCENARIOS[name]
    system, load = run_scenario(scenario)
    check(name, behavior_fingerprint(system.recorder))
    if load is not None:
        # What aggregation must satisfy to be admissible at all
        # (arXiv:1811.07088): subscriptions do collapse, the deliveries
        # are those of the uncollapsed store, and the hottest node's
        # share of matcher work falls.
        plain, plain_load = run_scenario(scenario, covering=False)
        covered, uncovered = matching(load), matching(plain_load)
        assert covered["covering"]["collapsed"] > 0
        assert uncovered["covering"]["collapsed"] == 0
        assert behavior_digest(plain.recorder) == PINS[name]["sha256"]
        assert covered["hottest_share"] < uncovered["hottest_share"]


# -- the sharded kernel ------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_smoke():
    """The n=4000 configuration and its one pre-generated trace."""
    config = ExperimentConfig(
        nodes=4000, key_bits=13, subscriptions=400, publications=4000,
        seed=20260808, discretization_width=256, cache_capacity=1024,
        pubsub=PubSubConfig(matcher="vector"),
        workload=WorkloadSpec(
            subscription_period=0.05, publication_mean_period=0.01,
            subscription_ttl=20.0,
        ),
    )
    trace = Trace.generate(
        config.workload, RandomStreams(config.seed).stream("workload"),
        ring_node_ids(config), config.subscriptions, config.publications,
    )
    return config, trace


@pytest.mark.parametrize("shards", (1, 2))
def test_sharded_kernel_digest_and_counters(scale_smoke, shards):
    config, trace = scale_smoke
    outcome = run_sharded(config, trace, shards, mode="fork", storage_samples=4)
    check(
        f"scale-smoke-n4000/shards{shards}",
        {
            "digest": behavior_digest(outcome.recorder),
            "barrier_rounds": outcome.barrier_rounds,
            "remote_messages": outcome.remote_messages,
        },
    )


# -- the ledger workloads ------------------------------------------------------------

LEDGER_FIELDS = ("msgs_per_op", "pairs_expected", "pairs_delivered", "false_positives")


@pytest.mark.parametrize(
    "name", ("steady-chord", "match-dense", "churn-chord", "steady-can", "scale-cold")
)
def test_ledger_smoke_workload(name):
    spec = {"kind": "pass", "name": name, "seed": 1, "scale": 0.1}
    done = subprocess.run(
        [sys.executable, str(LEDGER_RUN), "--child", json.dumps(spec)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    observed = {"sha256": result["sha256"]}
    observed.update((key, result["simulated"][key]) for key in LEDGER_FIELDS)
    check(f"ledger-smoke/{name}", observed)
