"""Audit records survive the JSONL export/load round trip."""

from __future__ import annotations

import json

from repro.audit.records import (
    CAN_ZONE_MISMATCH,
    VIOLATION_TYPES,
    ProbeRecord,
    Violation,
)
from repro.telemetry import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.reader import load_jsonl


class _FakeAudit:
    def __init__(self, violations, probes):
        self.violations = violations
        self.probes = probes


def test_violation_and_probe_round_trip(tmp_path):
    violation = Violation(
        CAN_ZONE_MISMATCH, 3.5, node=42, mapping="keyspace-split",
        detail="geometry entry diverged",
    )
    probe = ProbeRecord(
        t=4.0, overlay="can", nodes_total=10, nodes_checked=10, violations=1,
    )
    telemetry = Telemetry()
    telemetry.registry.histogram("audit.notification_latency").observe(0.25)
    telemetry.audit = _FakeAudit([violation], [probe])
    path = tmp_path / "audited.jsonl"
    write_jsonl(telemetry, path)

    dump = load_jsonl(path)
    assert dump["violation"] == [violation.as_dict()]
    assert dump["probe"] == [probe.as_dict()]
    histogram = dump["histogram"][0]
    assert histogram["p99"] == 0.25


def test_unaudited_export_has_no_audit_records(tmp_path):
    telemetry = Telemetry()
    path = tmp_path / "plain.jsonl"
    write_jsonl(telemetry, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(r["type"] not in ("violation", "probe") for r in records)
    dump = load_jsonl(path)
    assert dump["violation"] == [] and dump["probe"] == []


def test_violation_types_are_distinct():
    assert len(set(VIOLATION_TYPES)) == len(VIOLATION_TYPES)
