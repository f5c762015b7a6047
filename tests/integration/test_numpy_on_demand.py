"""numpy loads with the first vector engine a store builds, and not before.

A default run, and a ``matcher="vector"`` run whose stores all stay
below ``SCAN_LIMIT`` entries, build no vector engine, so the process
never imports numpy.  A vector run where a store reaches the limit
loads it (when it is installed) and delivers exactly the notifications
of the same trace on the grid engine.  The checks run in a fresh
interpreter: the test process may already hold numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

SCRIPT = r"""
import dataclasses, importlib.util, json, sys

from repro.core import PubSubConfig
from repro.core.rendezvous import SCAN_LIMIT
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, generate_trace, run_experiment
from repro.sim.rng import RandomStreams

out = {"have_numpy": importlib.util.find_spec("numpy") is not None}
small = ExperimentConfig(nodes=40, subscriptions=SCAN_LIMIT - 1, publications=30, seed=5)
run_experiment(small)
out["after_default_run"] = "numpy" in sys.modules
run_experiment(dataclasses.replace(small, pubsub=PubSubConfig(matcher="vector")))
out["after_small_vector_run"] = "numpy" in sys.modules

dense = ExperimentConfig(nodes=16, subscriptions=300, publications=120, seed=5)
trace = generate_trace(dense)  # one trace: ids come from process-wide counters


def notifications(matcher):
    config = dataclasses.replace(dense, pubsub=PubSubConfig(matcher=matcher))
    sim, system = build_system(config, RandomStreams(config.seed))
    seen = []
    system.set_global_notify_handler(
        lambda node, batch: seen.extend(
            (node, n.event.event_id, n.subscription_id, sim.now) for n in batch
        )
    )
    trace.replay(system)
    engines = sum(
        system.node(node_id).store.covering is not None
        for node_id in system.overlay.node_ids()
    )
    return seen, engines


grid, _ = notifications("grid")
out["after_grid_run"] = "numpy" in sys.modules
vector, engines = notifications("vector")
out["vector_engines_built"] = engines
out["after_dense_vector_run"] = "numpy" in sys.modules
out["notifications"] = len(vector)
out["same_notifications"] = vector == grid
print(json.dumps(out))
"""


def test_numpy_loads_only_with_a_vector_engine():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["after_default_run"] is False
    assert out["after_small_vector_run"] is False
    assert out["after_grid_run"] is False
    assert out["vector_engines_built"] > 0
    assert out["after_dense_vector_run"] is out["have_numpy"]
    assert out["notifications"] > 0
    assert out["same_notifications"] is True
