"""Each injected corruption class must raise its distinct violation type.

Every test corrupts exactly one piece of state, then asserts the
auditor reports the matching violation type, and that the
pre-corruption probe was clean.  (A Chord node holds no routing state
to corrupt: every hop reads its fingers off the sorted ring.)
"""

from __future__ import annotations

from tests.audit.conftest import build_audited_system

from repro.audit import AuditConfig
from repro.audit.records import (
    CAN_TESSELLATION,
    CAN_ZONE_MISMATCH,
    MAPPING_INTERSECTION,
    NOTIFICATION_FALSE_POSITIVE,
    NOTIFICATION_MISSED,
    NOTIFICATION_UNKNOWN,
)
from repro.core.payloads import Notification, NotifyPayload
from repro.core.subscriptions import Subscription
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay


def vtypes(auditor) -> set[str]:
    return {violation.vtype for violation in auditor.violations}


def test_overlapping_can_zones_detected():
    """One member's geometry entry written over another's: two nodes
    would route on the same zone.  Two zones start at one key, the
    copied zone ends at neither next start (``first``'s now ends where
    ``second``'s begins, ``second``'s old keys are nobody's), and
    ``second`` lies outside the zone it holds."""
    sim, system, auditor, _ = build_audited_system(CanOverlay)
    overlay = system.overlay
    first, second = sorted(overlay.node_ids())[:2]
    assert overlay.predecessor_of(second) == first
    clean = auditor.run_probe()
    assert clean.violations == 0

    overlay._geometry[second] = overlay.zone_geometry(first)
    record = auditor.run_probe()
    assert record.violations == 4
    assert [(v.vtype, v.node) for v in auditor.violations] == [
        (CAN_TESSELLATION, -1),
        (CAN_TESSELLATION, first),
        (CAN_TESSELLATION, second),
        (CAN_TESSELLATION, second),
    ]


def test_shortened_can_zone_detected():
    """One member's geometry entry shortened by a key, rectangles and
    all: the entry agrees with itself, but the zones no longer tile the
    key space, so one key would have no owner to route to."""
    sim, system, auditor, _ = build_audited_system(CanOverlay)
    overlay = system.overlay
    member = sorted(overlay.node_ids())[0]
    start, length = overlay.zone_of(member)
    assert (member - start) % overlay.keyspace.size < length - 1
    clean = auditor.run_probe()
    assert clean.violations == 0

    overlay._geometry[member] = (
        (start, length - 1),
        [overlay.rect_of_cell(*c) for c in overlay._decompose(start, length - 1)],
    )
    record = auditor.run_probe()
    assert record.violations == 1
    assert [(v.vtype, v.node) for v in auditor.violations] == [
        (CAN_TESSELLATION, member)
    ]


def test_can_rects_off_their_zone_detected():
    """One member's rectangles swapped for another's, its zone kept:
    the zones still tile, but the node would route on the wrong
    rectangles."""
    sim, system, auditor, _ = build_audited_system(CanOverlay)
    overlay = system.overlay
    first, second = sorted(overlay.node_ids())[:2]
    clean = auditor.run_probe()
    assert clean.violations == 0

    overlay._geometry[second] = (
        overlay.zone_of(second), overlay.zone_geometry(first)[1]
    )
    record = auditor.run_probe()
    assert record.violations == 1
    assert [(v.vtype, v.node) for v in auditor.violations] == [
        (CAN_ZONE_MISMATCH, second)
    ]


def test_corrupt_can_key_owner_slot_detected():
    """One wrong slot of the key→owner table routing reads is reported
    with its key, against the expansion of the zones."""
    sim, system, auditor, _ = build_audited_system(CanOverlay)
    overlay = system.overlay
    clean = auditor.run_probe()
    assert clean.violations == 0

    key = 1234
    truth = overlay.owner_of(key)
    overlay._key_owner[key] = next(
        n for n in sorted(overlay.node_ids()) if n != truth
    )
    record = auditor.run_probe()
    assert record.violations == 1
    (violation,) = [
        v for v in auditor.violations if v.vtype == CAN_TESSELLATION
    ]
    assert f"at key {key}:" in violation.detail
    assert f"want [{truth}]" in violation.detail


def test_suppressed_notification_detected():
    sim, system, auditor, space = build_audited_system(
        ChordOverlay, audit=AuditConfig(delivery_deadline=5.0)
    )
    nodes = sorted(system.overlay.node_ids())
    sigma = Subscription.build(space, a1=(0, 999))
    system.subscribe(nodes[0], sigma)
    sim.run()

    # Swallow every rendezvous-to-subscriber unicast, then publish a
    # matching event well clear of the install-grace window.
    system.send_notification = lambda *args, **kwargs: None
    sim.schedule_at(
        sim.now + 10.0,
        lambda: system.publish(nodes[1], space.make_event(a1=500, a2=7)),
    )
    sim.run()
    report = auditor.finalize()
    assert NOTIFICATION_MISSED in vtypes(auditor)
    assert report.publications_audited == 1
    assert not report.ok


def test_false_positive_notification_detected():
    sim, system, auditor, space = build_audited_system(ChordOverlay)
    nodes = sorted(system.overlay.node_ids())
    sigma = Subscription.build(space, a1=(0, 100))
    system.subscribe(nodes[0], sigma)
    sim.run()

    # Hand-deliver an event the stored subscription does not match.
    bogus = Notification(
        event=space.make_event(a1=900, a2=1),
        subscription_id=sigma.subscription_id,
        matched_at=nodes[2],
        published_at=sim.now,
    )
    system.deliver_notifications(
        nodes[0], NotifyPayload(subscriber=nodes[0], notifications=(bogus,))
    )
    assert NOTIFICATION_FALSE_POSITIVE in vtypes(auditor)

    unknown = Notification(
        event=space.make_event(a1=1, a2=1),
        subscription_id=999_999_999,
        matched_at=nodes[2],
        published_at=sim.now,
    )
    system.deliver_notifications(
        nodes[0], NotifyPayload(subscriber=nodes[0], notifications=(unknown,))
    )
    assert NOTIFICATION_UNKNOWN in vtypes(auditor)


def test_broken_mapping_intersection_detected():
    sim, system, auditor, space = build_audited_system(ChordOverlay)
    nodes = sorted(system.overlay.node_ids())
    sigma = Subscription.build(space, a1=(0, 999))
    system.subscribe(nodes[0], sigma)
    sim.run()

    # Break EK(e) so it cannot intersect SK(σ): the auditor must flag
    # the mapping contract (§3) at publish time, not a downstream miss.
    sk = system.mapping.subscription_keys(sigma)
    free_key = next(k for k in range(system.overlay.keyspace.size) if k not in sk)
    system.mapping.event_keys = lambda event: frozenset({free_key})
    sim.schedule_at(
        sim.now + 10.0,
        lambda: system.publish(nodes[1], space.make_event(a1=500, a2=7)),
    )
    sim.run()
    auditor.finalize()
    assert MAPPING_INTERSECTION in vtypes(auditor)
