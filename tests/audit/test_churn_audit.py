"""An audited run under churn must probe clean on every overlay.

The clean matrix audits a static overlay.  Here subscriptions and
publications run between joins, graceful leaves and crashes.  CAN
geometry is the overlay's own table and never lags, so a CAN probe
verifies every node.  A Chord or Pastry node holds no routing state
(each hop reads the sorted ring), so their probes check no node; their
runs still go through the delivery audit.  No probe may find a violation, and neither may the delivery
audit: a notification for a subscriber that has left is not delivered
to the node that took over its id.
"""

from __future__ import annotations

import random

import pytest

from tests.audit.conftest import build_audited_system

from repro.core.subscriptions import Subscription
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.pastry import PastryOverlay

CHURN = ("join", "leave", "join", "crash")
MAX_EVENTS = 100_000
# Whether a probe checks every node (else none: the node holds nothing).
CHECKS_ALL = {ChordOverlay: False, PastryOverlay: False, CanOverlay: True}


@pytest.mark.parametrize(
    "overlay_cls", list(CHECKS_ALL), ids=lambda cls: cls.__name__
)
def test_audited_run_under_churn_probes_clean(overlay_cls):
    sim, system, auditor, space = build_audited_system(overlay_cls, nodes=24)
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
        probes.append(auditor.run_probe())

    assert len(overlay) == 24  # as many joins as departures
    for record in probes:
        assert record.nodes_total > 0
        assert record.nodes_checked == (
            record.nodes_total if CHECKS_ALL[overlay_cls] else 0
        )
        assert record.violations == 0
    assert auditor.violations == []
