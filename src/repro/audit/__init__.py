"""Online invariant auditor & delivery-correctness observatory.

Attach an :class:`Auditor` to a running
:class:`~repro.core.system.PubSubSystem` and it verifies, on the
simulated clock, that the overlay stays structurally sound (Chord
finger consistency, CAN zone tessellation; a Pastry node holds no
routing state to check) and that every publication reaches exactly the
subscriptions it matches (the paper's §3 mapping-intersection
contract), recording SLO histograms along the way.  Violations and
probe results export through the telemetry JSONL and render in the
audit section of ``repro report``.

Disabled runs pay nothing: the system's hook sites guard on a cached
``auditor is None`` check, pinned by the fingerprints of
``tests/integration/test_behavior_pins.py``.
"""

from __future__ import annotations

from repro.audit.auditor import AuditConfig, Auditor, AuditReport
from repro.audit.invariants import overlay_kind, probe_structure
from repro.audit.records import VIOLATION_TYPES, ProbeRecord, Violation

__all__ = [
    "AuditConfig",
    "AuditReport",
    "Auditor",
    "ProbeRecord",
    "VIOLATION_TYPES",
    "Violation",
    "overlay_kind",
    "probe_structure",
]
