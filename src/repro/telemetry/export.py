"""Telemetry exporters: JSONL and Chrome trace-event (Perfetto) JSON.

The JSONL format is line-per-record with a ``type`` discriminator:

- ``meta``       — format name and version (first line);
- ``span``       — one hop or request root (see
  :class:`~repro.telemetry.tracing.Span`; times in simulated seconds);
- ``delivery``   — one application delivery ``{span, request, node, t}``;
- ``sample``     — one periodic registry sample ``{t, metrics}``;
- ``counter`` / ``gauge`` / ``histogram`` — final instrument values;
- ``violation`` / ``probe`` — audit findings and structural probe
  records (version 2+, present only when the run was audited; see
  :mod:`repro.audit.records`);
- ``load`` / ``skew`` / ``overload`` — the load observatory's final
  per-node/per-key load records, sim-time skew samples, and windowed
  overload-detector events (version 3+, present only when load
  metering ran; see :mod:`repro.telemetry.load`).

Older version-4 files may also hold records of a retired sharded-run
profiler: ``profile`` lines and ``overload`` lines with ``scope:
"shard"``.  :func:`load_jsonl` skips both, so every reader sees the
same dump with or without them.

The Chrome trace is a ``{"traceEvents": [...]}`` JSON that opens
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:
each hop span becomes a complete ("X") slice on its *source* node's
track with flow arrows ("s"/"f") stitching parent to child — so a
publication's m-cast tree renders as a cascade of arrows across node
tracks — and periodic samples become counter ("C") tracks.  Simulated
seconds map to trace microseconds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.telemetry.tracing import Delivery, Span

if TYPE_CHECKING:
    from repro.telemetry import Telemetry

FORMAT_NAME = "repro-telemetry"
#: Version 2 added the ``p99`` histogram field and the ``violation`` /
#: ``probe`` record types emitted by audited runs.  Version 3 added
#: the load observatory's ``load`` / ``skew`` / ``overload`` record
#: types (see :mod:`repro.telemetry.load`).  Version 4 added records
#: of a sharded-run profiler that no longer exists: the loader skips
#: them, and a file without them is valid version 4, so writers stay
#: on 4.  Loaders accept every earlier version (the newer record types
#: are simply absent).
FORMAT_VERSION = 4


# -- JSONL -------------------------------------------------------------------


def write_jsonl(telemetry: "Telemetry", path: str | Path) -> int:
    """Export a run's telemetry as JSONL; returns the record count."""
    records: list[dict] = [
        {"type": "meta", "format": FORMAT_NAME, "version": FORMAT_VERSION}
    ]
    for span in telemetry.tracer.spans:
        record = span.as_dict()
        record["type"] = "span"
        records.append(record)
    for span_id, request_id, node_id, t in telemetry.tracer.deliveries:
        records.append(
            {"type": "delivery", "span": span_id, "request": request_id,
             "node": node_id, "t": t}
        )
    for t, metrics in telemetry.samples:
        records.append({"type": "sample", "t": t, "metrics": metrics})
    registry = telemetry.registry
    for counter in registry.counters():
        records.append(
            {"type": "counter", "name": counter.name,
             "labels": dict(counter.labels), "value": counter.value}
        )
    for gauge in registry.gauges():
        records.append(
            {"type": "gauge", "name": gauge.name,
             "labels": dict(gauge.labels), "value": gauge.read()}
        )
    for histogram in registry.histograms():
        summary = histogram.summary()
        records.append(
            {"type": "histogram", "name": histogram.name,
             "labels": dict(histogram.labels), "count": summary.count,
             "mean": summary.mean, "p50": summary.p50, "p95": summary.p95,
             "p99": summary.p99, "max": summary.maximum}
        )
    audit = getattr(telemetry, "audit", None)
    if audit is not None:
        for violation in audit.violations:
            records.append(violation.as_dict())
        for probe in audit.probes:
            records.append(probe.as_dict())
    load = getattr(telemetry, "load", None)
    if load is not None:
        records.extend(load.load_records())
        records.extend(load.skew_records())
        records.extend(load.overload_records())
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
    return len(records)


class TelemetryDump:
    """A loaded JSONL export, grouped by record type."""

    def __init__(self) -> None:
        self.meta: dict = {}
        self.spans: list[Span] = []
        self.deliveries: list[Delivery] = []
        self.samples: list[tuple[float, dict[str, float]]] = []
        self.counters: list[dict] = []
        self.gauges: list[dict] = []
        self.histograms: list[dict] = []
        self.violations: list = []
        self.probes: list = []
        #: Load-observatory records (format v3+), kept as plain dicts:
        #: final per-entity ``load`` records, sim-time ``skew`` samples,
        #: and windowed ``overload`` detector events.
        self.loads: list[dict] = []
        self.skews: list[dict] = []
        self.overloads: list[dict] = []


def load_jsonl(path: str | Path) -> TelemetryDump:
    """Parse a JSONL export back into spans/deliveries/metrics.

    Records of an unknown type (the retired ``profile`` records among
    them) and shard-scope ``overload`` records are skipped.
    """
    dump = TelemetryDump()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                dump.meta = record
            elif kind == "span":
                dump.spans.append(Span.from_dict(record))
            elif kind == "delivery":
                dump.deliveries.append(
                    (record["span"], record["request"], record["node"],
                     record["t"])
                )
            elif kind == "sample":
                dump.samples.append((record["t"], record["metrics"]))
            elif kind == "counter":
                dump.counters.append(record)
            elif kind == "gauge":
                dump.gauges.append(record)
            elif kind == "histogram":
                dump.histograms.append(record)
            elif kind == "violation":
                # Lazy import: the audit package imports telemetry.
                from repro.audit.records import Violation

                dump.violations.append(Violation.from_dict(record))
            elif kind == "probe":
                from repro.audit.records import ProbeRecord

                dump.probes.append(ProbeRecord.from_dict(record))
            elif kind == "load":
                dump.loads.append(record)
            elif kind == "skew":
                dump.skews.append(record)
            elif kind == "overload":
                if record.get("scope") != "shard":
                    dump.overloads.append(record)
    return dump


# -- Chrome trace-event JSON (Perfetto) --------------------------------------

#: Synthetic process id for the whole simulation in the trace view.
_PID = 1

#: Minimum slice duration in trace microseconds (zero-length slices are
#: invisible in Perfetto; root spans and same-tick hops get this floor).
_MIN_DUR_US = 1.0


def _us(t: float) -> float:
    return t * 1e6


def to_chrome_trace(telemetry: "Telemetry") -> dict:
    """Build the Chrome trace-event representation of a traced run."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID, "name": "process_name",
         "args": {"name": "repro simulation"}},
    ]
    named_tracks: set[int] = set()

    def ensure_track(node_id: int) -> None:
        if node_id in named_tracks:
            return
        named_tracks.add(node_id)
        events.append(
            {"ph": "M", "pid": _PID, "tid": node_id, "name": "thread_name",
             "args": {"name": f"node {node_id}"}}
        )

    spans = telemetry.tracer.spans
    by_id = {span.id: span for span in spans}
    for span in spans:
        ensure_track(span.src)
        end = span.t_recv if span.t_recv is not None else span.t_send
        duration = max(_us(end) - _us(span.t_send), _MIN_DUR_US)
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": span.src,
                "ts": _us(span.t_send),
                "dur": duration,
                "name": f"{span.kind} #{span.request_id}",
                "cat": span.kind,
                "args": {
                    "span": span.id,
                    "parent": span.parent,
                    "src": span.src,
                    "dst": span.dst,
                    "status": span.status,
                },
            }
        )
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        # Flow arrow parent -> child; binding point "e" attaches the
        # finish to the enclosing slice so Perfetto draws the edge.
        flow = {"pid": _PID, "cat": span.kind, "name": "hop", "id": span.id}
        events.append(
            {**flow, "ph": "s", "tid": parent.src, "ts": _us(parent.t_send)}
        )
        events.append(
            {**flow, "ph": "f", "bp": "e", "tid": span.src,
             "ts": _us(span.t_send)}
        )
    for span_id, request_id, node_id, t in telemetry.tracer.deliveries:
        ensure_track(node_id)
        span = by_id.get(span_id)
        events.append(
            {
                "ph": "i",
                "pid": _PID,
                "tid": node_id,
                "ts": _us(t),
                "name": f"deliver {span.kind if span else '?'} #{request_id}",
                "s": "t",
                "args": {"span": span_id, "request": request_id},
            }
        )
    for t, metrics in telemetry.samples:
        for name, value in metrics.items():
            events.append(
                {"ph": "C", "pid": _PID, "ts": _us(t), "name": name,
                 "args": {"value": value}}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(telemetry: "Telemetry", path: str | Path) -> int:
    """Write the Perfetto-openable trace JSON; returns the event count."""
    trace = to_chrome_trace(telemetry)
    Path(path).write_text(json.dumps(trace, separators=(",", ":")) + "\n")
    return len(trace["traceEvents"])
