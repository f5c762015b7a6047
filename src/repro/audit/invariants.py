"""Structural invariant checks against overlay ground truth.

A probe compares the tables routing reads against the deterministic
ground truth the overlay can recompute from its membership (``zone_of``
and ``compute_cells``), and never mutates them.  CAN geometry is the
overlay's own table, written where membership changes, so a CAN probe
checks every node.  A Chord or Pastry node holds no routing state —
every hop reads its fingers, or its leaf span and prefix row, off the
sorted ring — so their probes check no node.
"""

from __future__ import annotations

import bisect

from repro.audit.records import (
    CAN_TESSELLATION,
    CAN_ZONE_MISMATCH,
    ProbeRecord,
    Violation,
)
from repro.overlay.can.overlay import CanOverlay
from repro.overlay.chord.overlay import ChordOverlay
from repro.overlay.pastry.overlay import PastryOverlay


def overlay_kind(overlay) -> str:
    """Short overlay family name for labels and probe records."""
    if isinstance(overlay, ChordOverlay):
        return "chord"
    if isinstance(overlay, PastryOverlay):
        return "pastry"
    if isinstance(overlay, CanOverlay):
        return "can"
    return type(overlay).__name__.lower()


def probe_structure(overlay, now: float) -> tuple[ProbeRecord, list[Violation]]:
    """Run one structural probe: its record and the violations found."""
    kind = overlay_kind(overlay)
    if kind == "can":
        checked, violations = _probe_can(overlay, now)
    else:  # Chord, Pastry (route off the ring) or unknown: nothing checkable
        checked, violations = 0, []
    record = ProbeRecord(
        t=now,
        overlay=kind,
        nodes_total=len(overlay),
        nodes_checked=checked,
        violations=len(violations),
    )
    return record, violations


def _probe_can(overlay: CanOverlay, now: float):
    """Zone tessellation, the key→owner table and every geometry entry.

    The zone table itself (``zone_table``) must tile the key space —
    strictly sorted unique starts, live owners, each covering its own
    id — and the flat key→owner table routing reads must be its
    run-length expansion.  Every member's geometry entry must hold its
    zone and the rectangles of that zone's cells.  Entries are written
    where membership changes and never lag it, so every node is
    checked; once each entry matches a zone of a tessellating table, no
    two can overlap.
    """
    violations: list[Violation] = []
    table = overlay.zone_table()
    starts = [start for start, _ in table]
    if sorted(set(starts)) != starts:
        violations.append(
            Violation(
                CAN_TESSELLATION,
                now,
                detail=f"zone starts not strictly increasing: {starts}",
            )
        )
    # Self-coverage is read off the zone table itself (index -1 is the
    # last zone, which wraps over the keys before the first start), not
    # from owner_of: that reads the key→owner table checked below.
    for start, owner in table:
        if not overlay.is_alive(owner):
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    node=owner,
                    detail=f"zone at {start} owned by dead node {owner}",
                )
            )
        elif table[bisect.bisect_right(starts, owner) - 1][1] != owner:
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    node=owner,
                    detail=f"node {owner} does not cover its own id",
                )
            )
    # The key→owner table that routing reads must be the run-length
    # expansion of the zone table.
    if table:
        expected = [table[-1][1]] * starts[0]
        for (start, owner), end in zip(
            table, starts[1:] + [overlay.keyspace.size]
        ):
            expected.extend([owner] * (end - start))
        key_owners = overlay.key_owner_table()
        if key_owners != expected:
            bad = next(
                (
                    key
                    for key, (have, want) in enumerate(zip(key_owners, expected))
                    if have != want
                ),
                min(len(key_owners), len(expected)),
            )
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    detail=(
                        f"key→owner table diverges from the zone table at "
                        f"key {bad}: have {key_owners[bad:bad + 1]}, "
                        f"want {expected[bad:bad + 1]}"
                    ),
                )
            )
    checked = 0
    rect_of_cell = overlay.rect_of_cell
    for node_id in overlay.node_ids():
        if not overlay.is_alive(node_id):
            continue  # no entry: reported above as a dead owner
        checked += 1
        zone, rects = overlay.zone_geometry(node_id)
        truth = overlay.zone_of(node_id)
        cells = overlay.compute_cells(node_id)
        if (zone, rects) != (truth, [rect_of_cell(*cell) for cell in cells]):
            violations.append(
                Violation(
                    CAN_ZONE_MISMATCH,
                    now,
                    node=node_id,
                    detail=(
                        f"geometry entry ({zone}, {len(rects)} rects) != "
                        f"zone {truth} and its {len(cells)} cells"
                    ),
                )
            )
    return checked, violations
