"""A healthy run must audit clean for every overlay × mapping pair.

This is the auditor's false-positive gate: real subscribe/publish
traffic over each overlay family and each ak-mapping, with structural
probes and the delivery oracle running, must end with zero violations
and a non-trivial amount of audited, correctly-delivered traffic.
"""

from __future__ import annotations

import pytest

from tests.audit.conftest import build_audited_system

from repro.core.subscriptions import Subscription
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.pastry import PastryOverlay

OVERLAYS = {
    "chord": ChordOverlay,
    "pastry": PastryOverlay,
    "can": CanOverlay,
}
MAPPINGS = ("attribute-split", "keyspace-split", "selective-attribute")


@pytest.mark.parametrize("overlay_name", sorted(OVERLAYS))
@pytest.mark.parametrize("mapping_name", MAPPINGS)
def test_clean_run_reports_zero_violations(overlay_name, mapping_name):
    sim, system, auditor, space = build_audited_system(
        OVERLAYS[overlay_name], mapping_name=mapping_name, nodes=24
    )
    nodes = sorted(system.overlay.node_ids())
    subscriptions = [
        Subscription.build(space, a1=(lo, lo + 400)) for lo in (0, 200, 500)
    ]
    for node, sigma in zip(nodes, subscriptions):
        system.subscribe(node, sigma)
    sim.run()

    # Publish well past the install-grace window; both events match at
    # least one stored subscription.
    t0 = sim.now + 10.0
    for offset, a1 in enumerate((100, 600)):
        sim.schedule_at(
            t0 + offset,
            lambda value=a1: system.publish(
                nodes[-1], space.make_event(a1=value, a2=3)
            ),
        )
    auditor.schedule_probes(5.0, horizon=t0 + 5.0)
    sim.run()

    report = auditor.finalize()
    assert report.ok, [v.as_dict() for v in report.violations]
    assert report.publications_audited == 2
    assert report.publications_indeterminate == 0
    assert report.deliveries_true >= 2
    assert report.deliveries_false == 0
    assert report.probes and all(p.violations == 0 for p in report.probes)
