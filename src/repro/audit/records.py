"""Audit record types: violations and structural probe results.

These are the payloads the auditor feeds into the telemetry JSONL
export (``type: "violation"`` / ``type: "probe"`` records).  The
reader keeps them as the plain dicts :meth:`as_dict` writes.
"""

from __future__ import annotations

import dataclasses

# -- violation taxonomy -------------------------------------------------------
#
# One distinct type per checkable invariant, so a health report (and the
# fault-injection tests) can tell *which* contract broke:
#
# structural (probe-time):
CAN_ZONE_MISMATCH = "can-zone-mismatch"
CAN_TESSELLATION = "can-tessellation"
# delivery-correctness (publication-deadline / notification-time):
NOTIFICATION_MISSED = "notification-missed"
NOTIFICATION_FALSE_POSITIVE = "notification-false-positive"
NOTIFICATION_UNKNOWN = "notification-unknown-subscription"
NOTIFICATION_MISROUTED = "notification-misrouted"
MAPPING_INTERSECTION = "mapping-intersection"

#: Every violation type the auditor can emit (render order).
VIOLATION_TYPES = (
    CAN_ZONE_MISMATCH,
    CAN_TESSELLATION,
    NOTIFICATION_MISSED,
    NOTIFICATION_FALSE_POSITIVE,
    NOTIFICATION_UNKNOWN,
    NOTIFICATION_MISROUTED,
    MAPPING_INTERSECTION,
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    Attributes:
        vtype: One of the ``VIOLATION_TYPES`` constants.
        t: Simulated time the breach was detected.
        node: The overlay node the breach is anchored at (-1 = n/a).
        mapping: Active ak-mapping name ("" for structural checks,
            which are mapping-independent).
        detail: Human-readable specifics (ids, expected vs actual).
    """

    vtype: str
    t: float
    node: int = -1
    mapping: str = ""
    detail: str = ""

    def as_dict(self) -> dict:
        return {"type": "violation", **dataclasses.asdict(self)}


@dataclasses.dataclass(frozen=True)
class ProbeRecord:
    """One periodic structural-invariant probe over the overlay.

    A CAN probe checks every node: its geometry is the overlay's own
    table and never lags.  A Chord or Pastry node holds no routing state
    (each hop reads the sorted ring), so their probes check none.

    Attributes:
        t: Simulated probe time.
        overlay: Overlay kind ("chord" / "pastry" / "can").
        nodes_total: Live nodes at probe time.
        nodes_checked: Nodes whose routing state was structurally
            verified.
        violations: Structural violations found by this probe.
    """

    t: float
    overlay: str
    nodes_total: int
    nodes_checked: int
    violations: int

    def as_dict(self) -> dict:
        return {"type": "probe", **dataclasses.asdict(self)}
