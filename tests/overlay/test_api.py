"""The abstract overlay interface: message helpers and defaults."""

from repro.overlay.api import (
    MessageKind,
    NeighborSide,
    OverlayMessage,
    next_request_id,
)
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator


def make_message(**overrides):
    defaults = dict(
        kind=MessageKind.PUBLICATION,
        payload="data",
        request_id=7,
        origin=100,
    )
    defaults.update(overrides)
    return OverlayMessage(**defaults)


def test_request_ids_monotonic_and_unique():
    first = next_request_id()
    second = next_request_id()
    assert second > first


def test_forwarded_copy_increments_hops_and_path():
    message = make_message()
    step1 = message.forwarded_copy(via=1)
    step2 = step1.forwarded_copy(via=2)
    assert message.hops == 0 and message.path == ()
    assert step1.hops == 1 and step1.path == (1,)
    assert step2.hops == 2 and step2.path == (1, 2)
    # Payload and identity travel unchanged.
    assert step2.payload == "data"
    assert step2.request_id == 7


def test_forwarded_copy_keeps_targets_by_default():
    message = make_message(target_keys=frozenset({1, 2}))
    assert message.forwarded_copy(via=5).target_keys == frozenset({1, 2})


def test_default_covers_uses_owner():
    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(13))
    overlay.build_ring([100, 4000])
    assert overlay.covers(100, 100)
    assert overlay.covers(100, 50)       # wraps: (4000, 100]
    assert overlay.covers(4000, 2000)
    assert not overlay.covers(100, 2000)


def test_neighbor_side_enum_values():
    assert NeighborSide.SUCCESSOR.value == "successor"
    assert NeighborSide.PREDECESSOR.value == "predecessor"


def test_message_kind_coverage():
    # The accounting taxonomy used throughout the metrics.
    assert {k.value for k in MessageKind} == {
        "subscription", "unsubscription", "publication",
        "notification", "collect", "control",
    }
