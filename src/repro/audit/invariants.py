"""Structural invariant checks on the tables routing reads.

A probe holds the tables routing reads to the rules that define them,
and never mutates them.  CAN holds its membership in two tables, the
geometry entries (member → zone and cell rectangles) and the key→owner
table: the zones must tile the key space, each entry's rectangles must
be its zone's cells, and the key→owner table must expand the zones.
Both are written where membership changes, so a CAN probe checks every
node.  A Chord or Pastry node holds no routing state —
every hop reads its fingers, or its leaf span and prefix row, off the
sorted ring — so their probes check no node.
"""

from __future__ import annotations

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
    """The two membership tables: geometry entries and key→owner table.

    The zones of the geometry entries, sorted by start, must tile the
    key space — strictly increasing starts, each zone ending where the
    next begins (cyclically), each owner inside its own zone — and
    each entry's rectangles must be those of its zone's cells.  The
    flat key→owner table routing reads must be the run-length
    expansion of the zones.  Entries are written where membership
    changes and never lag it, so every node is checked.
    """
    violations: list[Violation] = []
    size = overlay.keyspace.size
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
    tiled = not violations
    checked = 0
    rect_of_cell = overlay.rect_of_cell
    for (start, owner), end in zip(table, starts[1:] + starts[:1]):
        checked += 1
        zone, rects = overlay.zone_geometry(owner)
        length = zone[1]
        # (end - start) % size is 0 for a sole zone, which spans it all.
        if length != ((end - start) % size or size):
            tiled = False
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    node=owner,
                    detail=(
                        f"zone {zone} of node {owner} does not end where "
                        f"the next zone begins, at {end}"
                    ),
                )
            )
        if (owner - start) % size >= length:
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    node=owner,
                    detail=f"node {owner} is outside its own zone {zone}",
                )
            )
        cells = overlay.compute_cells(owner)
        if rects != [rect_of_cell(*cell) for cell in cells]:
            violations.append(
                Violation(
                    CAN_ZONE_MISMATCH,
                    now,
                    node=owner,
                    detail=(
                        f"geometry entry holds {len(rects)} rects, not those "
                        f"of zone {zone}'s {len(cells)} cells"
                    ),
                )
            )
    # The key→owner table that routing reads must be the run-length
    # expansion of the zones; zones that do not tile have none.
    if tiled and table:
        expected = [table[-1][1]] * starts[0]
        for (start, owner), end in zip(table, starts[1:] + [size]):
            expected.extend([owner] * (end - start))
        actual = overlay.key_owner_table()
        if actual != expected:
            bad = next(
                (
                    key
                    for key, (have, want) in enumerate(zip(actual, expected))
                    if have != want
                ),
                min(len(actual), len(expected)),
            )
            violations.append(
                Violation(
                    CAN_TESSELLATION,
                    now,
                    detail=(
                        f"key→owner table diverges from the zones at "
                        f"key {bad}: have {actual[bad:bad + 1]}, "
                        f"want {expected[bad:bad + 1]}"
                    ),
                )
            )
    return checked, violations
