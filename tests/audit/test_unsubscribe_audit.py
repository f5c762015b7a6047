"""The delivery oracle must honour unsubscriptions.

A subscription removed more than :data:`~repro.audit.auditor.GRACE`
before a publication is no longer expected to match it: the system
delivers nothing for it, and the oracle must not report that as
``notification-missed``.  One removed just after a publication raced
it, so either outcome is clean.  An auditor that ignored its ledger's
``t_unsubscribed`` would report every matching publication after the
removal as missed.
"""

from __future__ import annotations

import random

from tests.audit.conftest import build_audited_system

from repro.audit.auditor import GRACE
from repro.core.subscriptions import Subscription
from repro.overlay.chord import ChordOverlay


def test_a_publication_after_an_unsubscribe_expects_no_notification():
    sim, system, auditor, space = build_audited_system(ChordOverlay, seed=11)
    rng = random.Random(11)
    nodes = sorted(system.overlay.node_ids())
    subscriptions = []
    for _ in range(12):
        low = rng.randrange(800)
        sigma = Subscription.build(space, a1=(low, low + 200))
        subscriptions.append((rng.choice(nodes), sigma))
        system.subscribe(*subscriptions[-1])
    received: list[tuple[float, int]] = []
    system.set_global_notify_handler(
        lambda node, ns: received.extend((sim.now, n.subscription_id) for n in ns)
    )
    sim.run()

    removed = subscriptions[::2]
    removed_ids = {sigma.subscription_id for _, sigma in removed}
    t_removed = sim.now + 5.0
    for node, sigma in removed:
        sim.schedule_at(t_removed, system.unsubscribe, node, sigma)
    # Publications well past the grace window, each matching some
    # subscription still installed and some removed.
    t_published = t_removed + GRACE + 5.0
    events = [space.make_event(a1=rng.randrange(1000), a2=3) for _ in range(10)]
    for offset, event in enumerate(events):
        sim.schedule_at(t_published + offset, system.publish, nodes[0], event)
    # One subscription still installed races a publication: removed
    # right after it is sent, within the grace window.
    last_node, last_sigma = subscriptions[1]
    raced = space.make_event(a1=last_sigma.constraints[0].low, a2=3)
    t_raced = t_published + len(events) + 5.0
    sim.schedule_at(t_raced, system.publish, nodes[0], raced)
    sim.schedule_at(t_raced + 0.01, system.unsubscribe, last_node, last_sigma)
    sim.run()

    report = auditor.finalize()
    assert report.ok, [v.as_dict() for v in report.violations]
    assert report.publications_audited == len(events) + 1
    after = [
        sigma.subscription_id
        for event in events
        for _, sigma in removed
        if sigma.matches(event)
    ]
    assert after, "no publication matched a removed subscription"
    assert not [
        sid for t, sid in received if t >= t_removed and sid in removed_ids
    ]
    assert report.deliveries_true > 0
