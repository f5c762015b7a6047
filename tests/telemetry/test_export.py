"""Exporter tests: JSONL round-trip and Chrome trace-event structure."""

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.overlay.api import MessageKind, OverlayMessage
from repro.telemetry import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.reader import load_jsonl, to_chrome_trace, write_chrome_trace


def _traced_telemetry() -> Telemetry:
    telemetry = Telemetry()
    tracer = telemetry.tracer
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION, payload=None, request_id=1, origin=1
    )
    tracer.on_request(message, 0.0)
    tracer.on_send(message, 1, 2, 0.0, 0.05)
    tracer.on_deliver(message, 2, 0.05)
    telemetry.registry.counter("network.dropped").inc(2)
    telemetry.registry.gauge("sim.pending", supplier=lambda: 4.0)
    telemetry.registry.histogram("matches").observe(3.0)
    telemetry.sample(0.0)
    telemetry.sample(1.0)
    return telemetry


def _loaded(telemetry: Telemetry, path) -> dict:
    write_jsonl(telemetry, path)
    return load_jsonl(path)


def test_jsonl_round_trip(tmp_path):
    telemetry = _traced_telemetry()
    path = tmp_path / "out.jsonl"
    count = write_jsonl(telemetry, path)
    assert count == sum(1 for _ in open(path))
    dump = load_jsonl(path)
    assert len(dump["span"]) == 2
    assert dump["span"][0]["status"] == "root"
    assert [
        (d["span"], d["request"], d["node"], d["t"]) for d in dump["delivery"]
    ] == [(2, 1, 2, 0.05)]
    assert len(dump["sample"]) == 2
    assert dump["sample"][1]["metrics"]["network.dropped"] == 2
    assert [c["value"] for c in dump["counter"]] == [2]
    assert [g["value"] for g in dump["gauge"]] == [4.0]
    assert dump["histogram"][0]["count"] == 1


def test_chrome_trace_structure(tmp_path):
    trace = to_chrome_trace(_loaded(_traced_telemetry(), tmp_path / "t.jsonl"))
    events = trace["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    flows = [e for e in events if e["ph"] in ("s", "f")]
    instants = [e for e in events if e["ph"] == "i"]
    counters = [e for e in events if e["ph"] == "C"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(slices) == 2  # root + hop
    assert len(flows) == 2  # one s/f pair for the hop
    assert len(instants) == 1  # the delivery
    assert counters  # sampled metrics
    assert any(e["name"] == "process_name" for e in meta)
    hop_slice = next(s for s in slices if s["args"]["span"] == 2)
    assert hop_slice["ts"] == 0.0
    assert hop_slice["dur"] == 50_000.0  # 0.05 s in microseconds
    assert hop_slice["tid"] == 1  # slices live on the source track
    finish = next(e for e in flows if e["ph"] == "f")
    assert finish["bp"] == "e"


def test_write_chrome_trace_is_valid_json(tmp_path):
    dump = _loaded(_traced_telemetry(), tmp_path / "t.jsonl")
    path = tmp_path / "out.trace.json"
    count = write_chrome_trace(dump, path)
    parsed = json.loads(path.read_text())
    assert len(parsed["traceEvents"]) == count
    assert parsed["displayTimeUnit"] == "ms"


def test_chrome_trace_from_the_file_equals_the_live_one(tmp_path):
    # The trace built from a written-then-loaded export is the trace of
    # the run itself: records built here straight from the live bundle
    # give the same JSON, byte for byte.
    telemetry = Telemetry()
    run_experiment(
        ExperimentConfig(nodes=60, subscriptions=20, publications=20),
        telemetry=telemetry,
    )
    tracer = telemetry.tracer
    live = {
        "span": [span.as_dict() for span in tracer.spans],
        "delivery": [
            {"span": span, "request": request, "node": node, "t": t}
            for span, request, node, t in tracer.deliveries
        ],
        "sample": [
            {"t": t, "metrics": metrics} for t, metrics in telemetry.samples
        ],
    }
    from_file = to_chrome_trace(_loaded(telemetry, tmp_path / "run.jsonl"))
    assert len(from_file["traceEvents"]) > 1000
    assert json.dumps(from_file) == json.dumps(to_chrome_trace(live))
