"""An audited CAN run under churn must probe clean.

The clean matrix audits a static overlay.  Here subscriptions and
publications run between joins, graceful leaves and crashes, and before
each probe every live node brings its cells current, so each probe
verifies every node rather than counting it stale — and must find no
zone mismatch, overlap or tessellation fault.
"""

from __future__ import annotations

import random

from tests.audit.conftest import build_audited_system

from repro.audit.records import (
    CAN_TESSELLATION,
    CAN_ZONE_MISMATCH,
    CAN_ZONE_OVERLAP,
)
from repro.core.subscriptions import Subscription
from repro.overlay.can import CanOverlay

ZONE_VIOLATIONS = {CAN_ZONE_MISMATCH, CAN_ZONE_OVERLAP, CAN_TESSELLATION}
CHURN = ("join", "leave", "join", "crash")
MAX_EVENTS = 100_000


def test_audited_can_run_under_churn_probes_clean():
    sim, system, auditor, space = build_audited_system(CanOverlay, nodes=24)
    overlay = system.overlay
    rng = random.Random(17)
    probes = []
    for step in range(36):
        nodes = overlay.node_ids()
        lo = rng.randrange(900)
        system.subscribe(
            rng.choice(nodes), Subscription.build(space, a1=(lo, lo + 100))
        )
        system.publish(
            rng.choice(nodes), space.make_event(a1=rng.randrange(1000), a2=3)
        )
        sim.run(max_events=MAX_EVENTS)
        assert sim.pending == 0  # quiescent: no message still walking
        kind = CHURN[step % len(CHURN)]
        if kind == "join":
            joiner = rng.randrange(overlay.keyspace.size)
            while overlay.is_alive(joiner):
                joiner = rng.randrange(overlay.keyspace.size)
            system.add_node(joiner)
        elif kind == "leave":
            system.remove_node(rng.choice(overlay.node_ids()))
        else:
            system.crash_node(rng.choice(overlay.node_ids()))
        sim.run(max_events=MAX_EVENTS)
        assert sim.pending == 0  # quiescent: no message still walking
        for node_id in overlay.node_ids():
            overlay.node(node_id).cells()
        probes.append(auditor.run_probe())

    assert len(overlay) == 24  # as many joins as departures
    for record in probes:
        assert record.nodes_checked == record.nodes_total > 0
        assert record.violations == 0
    assert not ZONE_VIOLATIONS & {v.vtype for v in auditor.violations}
