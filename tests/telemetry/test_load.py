"""Load observatory: meter behavior, export v3, parity, reporting.

The acceptance properties from the PR: (a) with the observatory
enabled on a Zipf-skewed workload, the report names the hot rendezvous
keys and their load share; (b) with it disabled, the run's behavior
fingerprint is bit-for-bit identical to an unmetered run (observers
subscribe to the tap; none of them steers the run).
"""

import json
from types import SimpleNamespace

import pytest

from repro.audit import AuditConfig
from repro.cli import main
from repro.core.system import RoutingMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.fingerprint import behavior_fingerprint
from repro.telemetry import NullTracer, Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.load import LoadMeter, MatchWork
from repro.telemetry.loadreport import build_load_report, render_load_report
from repro.telemetry.reader import load_jsonl
from repro.workload.spec import WorkloadSpec


def zipf_config(**overrides):
    """A small run with skewed interest (hot rendezvous keys exist)."""
    defaults = dict(
        mapping="selective-attribute",
        routing=RoutingMode.MCAST,
        nodes=80,
        subscriptions=40,
        publications=40,
        workload=WorkloadSpec(
            selective_attributes=(0, 1),
            zipf_exponent=1.5,
            temporal_locality=0.8,
        ),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# -- LoadMeter unit behavior -------------------------------------------------


MESSAGE = None  # the meter reads nothing off the envelope


def send(meter, src):
    meter.on_send(MESSAGE, src, 99, 0.0, 0.05)


def node(node_id, covered=()):
    """What the meter reads of a ``PubSubNode``."""
    return SimpleNamespace(
        id=node_id, covered_targets=lambda message: covered
    )


class TestLoadMeter:
    def test_transmit_and_deliver_attribute_to_nodes(self):
        meter = LoadMeter()
        send(meter, 1)
        send(meter, 1)
        meter.on_deliver(MESSAGE, 1, 0.0)
        meter.on_deliver(MESSAGE, 2, 0.0)
        assert meter.forwarded == {1: 2}
        assert meter.delivered == {1: 1, 2: 1}
        assert meter.node_loads() == {1: 3.0, 2: 1.0}

    def test_bucket_drain_tracks_count_and_max_depth(self):
        meter = LoadMeter()
        meter.on_drain(5, 3)
        meter.on_drain(5, 7)
        meter.on_drain(5, 2)
        assert meter.bucket_drains == {5: 3}
        assert meter.bucket_max_depth == {5: 7}

    def test_subscription_and_publication_key_attribution(self):
        meter = LoadMeter()
        meter.on_store(node(1), [10, 11])
        meter.on_store(node(2), [10])
        meter.on_match(node(3, covered=[10, 12]), MESSAGE, [])
        assert meter.subscriptions_stored == {1: 1, 2: 1}
        assert meter.key_subscriptions == {10: 2, 11: 1}
        assert meter.key_publications == {10: 1, 12: 1}
        assert meter.key_loads() == {10: 3.0, 11: 1.0, 12: 1.0}

    def test_match_work_handle_is_get_or_create(self):
        meter = LoadMeter()
        work = meter.match_work_for(9)
        assert isinstance(work, MatchWork)
        assert meter.match_work_for(9) is work

    def test_sample_snapshots_skew_and_runs_detector(self):
        meter = LoadMeter(overload_threshold=2.0)
        for _ in range(30):
            send(meter, 1)
        send(meter, 2)
        send(meter, 3)
        send(meter, 4)
        meter.sample(10.0)
        assert len(meter.skew_samples) == 1
        t, scopes = meter.skew_samples[0]
        assert t == 10.0
        assert scopes["node"].count == 4
        assert [event.node for event in meter.detector.events] == [1]

    def test_load_records_deterministic_and_complete(self):
        meter = LoadMeter()
        send(meter, 2)
        meter.on_deliver(MESSAGE, 1, 0.0)
        meter.on_store(node(3), [7])
        meter.on_match(node(1, covered=[7]), MESSAGE, [])
        work = meter.match_work_for(3)
        work.candidates += 5
        work.matched += 1
        records = meter.load_records()
        nodes = [r for r in records if r["scope"] == "node"]
        keys = [r for r in records if r["scope"] == "key"]
        assert [r["id"] for r in nodes] == [1, 2, 3]
        assert [r["id"] for r in keys] == [7]
        assert keys[0]["subscriptions"] == 1
        assert keys[0]["publications"] == 1
        by_id = {r["id"]: r for r in nodes}
        assert by_id[2]["forwarded"] == 1
        assert by_id[1]["delivered"] == 1
        assert by_id[3]["match_candidates"] == 5


def test_telemetry_bundles_load_meter_only_when_enabled():
    assert isinstance(Telemetry().load, LoadMeter)
    assert Telemetry(enabled=False).load is None
    assert Telemetry(load_metering=False).load is None


# -- end-to-end: Zipf workload through the full stack ------------------------


@pytest.fixture(scope="module")
def zipf_run():
    telemetry = Telemetry()
    result = run_experiment(zipf_config(), telemetry=telemetry)
    return telemetry, result


@pytest.fixture(scope="module")
def zipf_telemetry(zipf_run):
    return zipf_run[0]


def test_enabled_run_populates_the_meter(zipf_telemetry):
    load = zipf_telemetry.load
    assert load is not None
    assert load.forwarded, "no forwarding attributed"
    assert load.delivered, "no deliveries attributed"
    assert load.subscriptions_stored, "no stored subscriptions attributed"
    assert load.key_subscriptions, "no per-key subscription load"
    assert load.key_publications, "no per-key publication load"
    assert load.bucket_drains, "no bucket drains observed"
    # The sim-clock sampling hook ran (24 periodic + initial + final).
    assert len(load.skew_samples) >= 2
    # Matcher work flowed through the attached handles.
    assert sum(w.candidates for w in load.match_work.values()) > 0
    assert sum(w.matched for w in load.match_work.values()) > 0


def test_forwarded_load_equals_recorded_sends(zipf_run):
    # Every one-hop send is charged to exactly one forwarding node, so
    # the meter's total must equal the recorder's send count.
    telemetry, result = zipf_run
    load = telemetry.load
    assert sum(load.forwarded.values()) == result.recorder.messages.total_sends()


def test_export_round_trips_load_records(zipf_telemetry, tmp_path):
    path = tmp_path / "zipf.jsonl"
    write_jsonl(zipf_telemetry, path)
    dump = load_jsonl(path)
    load = zipf_telemetry.load
    assert len(dump["load"]) == len(load.load_records())
    assert len(dump["skew"]) == 2 * len(load.skew_samples)  # node + key
    assert len(dump["overload"]) == len(load.detector.events)
    scopes = {record["scope"] for record in dump["skew"]}
    assert scopes == {"node", "key"}


def test_report_names_hot_keys_with_load_share(zipf_telemetry, tmp_path):
    path = tmp_path / "zipf.jsonl"
    write_jsonl(zipf_telemetry, path)
    report = build_load_report(load_jsonl(path))
    keys = report["keys"]
    assert keys["count"] > 0 and keys["total_load"] > 0
    hottest = keys["top"][0]
    # The Zipf workload concentrates interest: the hottest key exists,
    # carries a positive share, and the section is sorted hot-first.
    assert hottest["load"] > 0 and 0 < hottest["share"] <= 1
    loads = [entry["load"] for entry in keys["top"]]
    assert loads == sorted(loads, reverse=True)
    rendered = render_load_report(report)
    assert f"key {hottest['id']}" in rendered
    assert "hot rendezvous keys" in rendered
    assert "gini" in rendered


def test_cli_report_load_mode(zipf_telemetry, tmp_path, capsys):
    path = tmp_path / "zipf.jsonl"
    write_jsonl(zipf_telemetry, path)
    artifact = tmp_path / "report.json"
    assert main(["report", str(path), "--json", str(artifact)]) == 0
    shown = capsys.readouterr().out
    assert "rendezvous load-skew report" in shown
    assert "hot nodes" in shown
    written = json.loads(artifact.read_text())
    assert written["load"]["nodes"]["top"] and written["load"]["keys"]["top"]
    assert written["trace"]["spans"] == len(zipf_telemetry.tracer.spans)
    assert written["audit"] is None


def test_cli_report_notes_loadless_export(tmp_path, capsys):
    # A disabled-load export has no load records: the load section is
    # one line, and the other sections still print.
    telemetry = Telemetry(load_metering=False)
    run_experiment(zipf_config(subscriptions=5, publications=5),
                   telemetry=telemetry)
    path = tmp_path / "noload.jsonl"
    write_jsonl(telemetry, path)
    assert main(["report", str(path)]) == 0
    shown = capsys.readouterr().out
    assert "\nload: not recorded — no load records" in shown
    assert "rendezvous load-skew report" not in shown
    assert "complete causal trees" in shown


def test_last_skew_sample_counts_every_node_that_joined(tmp_path):
    # The runner's final sample follows the last traffic, so the last
    # node skew sample and the final load records describe the same
    # distribution — idle nodes included, at zero load.
    telemetry = Telemetry()
    run_experiment(
        zipf_config(nodes=100, subscriptions=10, publications=10),
        telemetry=telemetry,
    )
    path = tmp_path / "run.jsonl"
    write_jsonl(telemetry, path)
    dump = load_jsonl(path)
    last = [r for r in dump["skew"] if r["scope"] == "node"][-1]
    final = build_load_report(dump)["nodes"]
    assert final["count"] == 100
    assert (last["count"], last["gini"]) == (final["count"], final["gini"])


# -- observers never steer the run ---------------------------------------------


def test_disabled_and_enabled_runs_share_one_fingerprint():
    plain = run_experiment(zipf_config(seed=13))
    metered = run_experiment(zipf_config(seed=13), telemetry=Telemetry())
    unmetered = run_experiment(
        zipf_config(seed=13), telemetry=Telemetry(load_metering=False)
    )
    fp = behavior_fingerprint(plain.recorder)["sha256"]
    assert behavior_fingerprint(metered.recorder)["sha256"] == fp
    assert behavior_fingerprint(unmetered.recorder)["sha256"] == fp


OBSERVERS = {
    "tracing": lambda: (Telemetry(load_metering=False), None),
    "load": lambda: (Telemetry(tracer=NullTracer()), None),
    "audit": lambda: (None, AuditConfig()),
    "all": lambda: (Telemetry(), AuditConfig()),
}


@pytest.fixture(scope="module")
def plain_sha256():
    return {
        overlay: behavior_fingerprint(
            run_experiment(zipf_config(seed=13, overlay=overlay)).recorder
        )["sha256"]
        for overlay in ("chord", "pastry", "can")
    }


@pytest.mark.parametrize("overlay", ["chord", "pastry", "can"])
@pytest.mark.parametrize("observers", sorted(OBSERVERS))
def test_observed_runs_read_the_plain_fingerprint(plain_sha256, overlay, observers):
    telemetry, audit = OBSERVERS[observers]()
    observed = run_experiment(
        zipf_config(seed=13, overlay=overlay), telemetry=telemetry, audit=audit
    )
    fingerprint = behavior_fingerprint(observed.recorder)["sha256"]
    assert fingerprint == plain_sha256[overlay]
    # ... and each observer did observe the run it left alone.
    if telemetry is not None:
        sends = observed.recorder.messages.total_sends()
        if observers != "load":
            hops = [s for s in telemetry.tracer.spans if s.status != "root"]
            assert len(hops) == sends
        if observers != "tracing":
            assert sum(telemetry.load.forwarded.values()) == sends
    if audit is not None:
        assert observed.audit.ok and observed.audit.publications_audited > 0
