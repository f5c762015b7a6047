"""Acceptance tests for the unified telemetry layer.

The headline property (from the PR's acceptance criteria): a traced run
produces a span graph from which every publication's m-cast tree can be
reconstructed end to end — each application delivery walks back to the
request's root span.  Also pinned here: enabling telemetry must not
perturb the simulation itself (recorder metrics identical bit for bit).
"""

import random

import pytest

from repro.cli import main
from repro.core import EventSpace, PubSubSystem, Subscription
from repro.core.mappings import make_mapping
from repro.core.system import PubSubConfig, RoutingMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.overlay.api import MessageKind
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.chord.protocol import ProtocolChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.reader import delivery_coverage, load_jsonl, request_tree
from repro.telemetry.tracing import ROOT
from repro.workload.spec import WorkloadSpec


def small_config(**overrides):
    defaults = dict(
        mapping="selective-attribute",
        pubsub=PubSubConfig(routing=RoutingMode.MCAST),
        nodes=80,
        subscriptions=30,
        publications=30,
        workload=WorkloadSpec(subscription_ttl=None),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def exported(telemetry, tmp_path):
    """The run's export as the reader loads it."""
    path = tmp_path / "run.jsonl"
    write_jsonl(telemetry, path)
    return load_jsonl(path)


def test_every_delivery_reachable_from_its_root(tmp_path):
    telemetry = Telemetry()
    run_experiment(small_config(), telemetry=telemetry)
    dump = exported(telemetry, tmp_path)
    assert dump["span"], "traced run recorded no spans"
    assert dump["delivery"], "traced run recorded no deliveries"
    coverage = delivery_coverage(dump["span"], dump["delivery"])
    assert coverage, "no request had deliveries"
    incomplete = [rid for rid, ok in coverage.items() if not ok]
    assert not incomplete, f"orphaned deliveries in requests {incomplete}"


@pytest.mark.parametrize(
    "overlay_cls", [ChordOverlay, PastryOverlay, CanOverlay, ProtocolChordOverlay]
)
def test_every_observer_sees_every_delivery(overlay_cls, tmp_path):
    # One do_deliver serves every overlay, so the application, the
    # recorder, the tracer and the load meter count the same deliveries.
    telemetry = Telemetry()
    sim = Simulator()
    keyspace = KeySpace(13)
    overlay = overlay_cls(sim, keyspace, Network(sim, telemetry=telemetry))
    overlay.build_ring(random.Random(15).sample(range(keyspace.size), 40))
    space = EventSpace.uniform(("a1", "a2"), 1000)
    system = PubSubSystem(
        sim, overlay, make_mapping("selective-attribute", space, keyspace)
    )
    upcalls = []

    def deliver(node_id, message):
        upcalls.append(node_id)
        system.node(node_id).on_deliver(message)

    overlay.set_deliver(deliver)
    nodes = overlay.node_ids()
    sim.run_until(sim.now + 30.0)  # a self-maintained ring settles its fingers
    system.subscribe(nodes[3], Subscription.build(space, a1=(100, 200)))
    system.subscribe(nodes[9], Subscription.build(space, a2=(0, 500)))
    sim.run_until(sim.now + 30.0)
    for index in range(4):
        system.publish(nodes[20 + index], space.make_event(a1=150, a2=index))
    sim.run_until(sim.now + 30.0)

    traces = system.recorder.messages.traces.values()
    assert len(upcalls) > 8
    assert sum(trace.delivery_count for trace in traces) == len(upcalls)
    assert len(telemetry.tracer.deliveries) == len(upcalls)
    assert sum(telemetry.load.delivered.values()) == len(upcalls)
    dump = exported(telemetry, tmp_path)
    coverage = delivery_coverage(dump["span"], dump["delivery"])
    assert coverage and all(coverage.values())


def test_publication_mcast_tree_reconstructs(tmp_path):
    # At least one publication must fan out to several rendezvous nodes
    # (selective-attribute maps each event to d=4 keys) and its whole
    # tree must hang off the single root span.
    telemetry = Telemetry()
    run_experiment(small_config(), telemetry=telemetry)
    dump = exported(telemetry, tmp_path)
    pub_requests = {
        s["request"] for s in dump["span"] if s["kind"] == "publication"
    }
    fanned_out = 0
    for request_id in pub_requests:
        roots, reachable = request_tree(dump["span"], request_id)
        assert len(roots) == 1, "publication must have exactly one root"
        delivered = [d for d in dump["delivery"] if d["request"] == request_id]
        if len(delivered) >= 2:
            fanned_out += 1
            for delivery in delivered:
                assert delivery["span"] in reachable
    assert fanned_out > 0, "no publication reached multiple nodes"


def test_notification_roots_chain_to_publication_hops():
    telemetry = Telemetry()
    run_experiment(small_config(), telemetry=telemetry)
    spans = telemetry.tracer.spans
    by_id = {s.id: s for s in spans}
    notify_roots = [
        s for s in spans if s.kind == "notification" and s.status == ROOT
    ]
    assert notify_roots, "run produced no notifications"
    chained = [s for s in notify_roots if s.parent != 0]
    assert chained, "no notification chained to its publication"
    for span in chained:
        parent = by_id[span.parent]
        assert parent.kind == "publication"


def test_enabled_telemetry_does_not_perturb_the_run():
    baseline = run_experiment(small_config(seed=11))
    traced = run_experiment(small_config(seed=11), telemetry=Telemetry())
    assert baseline.sub_hops == traced.sub_hops
    assert baseline.pub_hops == traced.pub_hops
    assert baseline.notify_hops == traced.notify_hops
    assert baseline.notification_messages == traced.notification_messages
    assert (
        baseline.max_subscriptions_per_node
        == traced.max_subscriptions_per_node
    )
    assert baseline.notification_delay == traced.notification_delay
    base_msgs = baseline.recorder.messages
    traced_msgs = traced.recorder.messages
    for kind in MessageKind:
        assert base_msgs.total_sends(kind) == traced_msgs.total_sends(kind)


def test_span_counts_match_recorder_sends():
    # Every recorded one-hop send must have exactly one non-root span.
    telemetry = Telemetry()
    result = run_experiment(small_config(), telemetry=telemetry)
    hop_spans = [s for s in telemetry.tracer.spans if s.status != ROOT]
    assert len(hop_spans) == result.recorder.messages.total_sends()


def test_registry_samples_carry_sim_time_axis():
    telemetry = Telemetry()
    run_experiment(small_config(), telemetry=telemetry)
    times = [t for t, _ in telemetry.samples]
    assert times == sorted(times)
    assert times[0] == 0.0
    assert times[-1] > 0.0
    # Kernel gauges appear in samples without touching the hot loops.
    assert "sim.events_processed" in telemetry.samples[-1][1]
    final = telemetry.samples[-1][1]
    assert final["sim.events_processed"] > 0


def test_cli_run_telemetry_export_round_trips(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    perfetto = tmp_path / "run.trace.json"
    code = main([
        "run", "--nodes", "60", "--subscriptions", "20",
        "--publications", "20", "--telemetry", str(out),
    ])
    assert code == 0
    dump = load_jsonl(out)
    assert dump["span"] and dump["delivery"]
    coverage = delivery_coverage(dump["span"], dump["delivery"])
    assert coverage and all(coverage.values())
    # The report reads the same file and exits 0 (full trees).
    capsys.readouterr()
    assert main(["report", str(out), "--perfetto", str(perfetto)]) == 0
    shown = capsys.readouterr().out
    assert "complete causal trees" in shown
    assert perfetto.exists()


def test_jsonl_export_of_experiment_round_trips(tmp_path):
    telemetry = Telemetry()
    run_experiment(small_config(), telemetry=telemetry)
    path = tmp_path / "exp.jsonl"
    write_jsonl(telemetry, path)
    dump = load_jsonl(path)
    assert len(dump["span"]) == len(telemetry.tracer.spans)
    assert len(dump["delivery"]) == len(telemetry.tracer.deliveries)
    assert len(dump["sample"]) == len(telemetry.samples)
