"""The telemetry export: one JSONL file per run, format version 5.

This module is the only writer.  ``repro report PATH``
(:mod:`repro.telemetry.reader`) is the only reader: it renders every
section the file holds and builds the Chrome trace from it.

The file is line-per-record with a ``type`` discriminator:

- ``meta``       — format name and version (first line);
- ``span``       — one hop or request root (see
  :class:`~repro.telemetry.tracing.Span`; times in simulated seconds);
- ``delivery``   — one application delivery ``{span, request, node, t}``;
- ``sample``     — one periodic registry sample ``{t, metrics}``;
- ``counter`` / ``gauge`` / ``histogram`` — final instrument values;
- ``violation`` / ``probe`` — audit findings and structural probe
  records (present only when the run was audited; see
  :mod:`repro.audit.records`);
- ``load`` / ``skew`` / ``overload`` — the load observatory's final
  per-node/per-key load records, sim-time skew samples, and windowed
  overload-detector events (present only when load metering ran; see
  :mod:`repro.telemetry.load`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.telemetry import Telemetry

FORMAT_NAME = "repro-telemetry"
#: Version 5 is the only version written or read.  Versions 2 to 4
#: added record types (``p99`` and the audit records, then the load
#: records, then a retired profiler's records); version 5 drops the
#: Chord staleness fields (``nodes_stale``, ``nodes_cold``,
#: ``max_staleness``) from ``probe`` records.
FORMAT_VERSION = 5


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
