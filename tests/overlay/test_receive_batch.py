"""A bucket's drain contract, now that the network owns the loop.

There is no batch upcall any more: the network's drain calls the
destination's per-message handler once per message, in send order, and
re-reads its liveness before each.  ``Network.register`` still accepts
a third argument (the ledger's micro passes one) and never calls it.
These tests pin that from both sides: a batch handler is accepted and
ignored, and all three overlays keep send-order dispatch and the
mid-bucket-death accounting of a one-event-per-message engine.
"""

import pytest

from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import FixedDelay, Network
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(13)


def make_message(request_id=1, payload=None):
    return OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=payload,
        request_id=request_id,
        origin=0,
    )


# -- network side: a batch handler is accepted and never called -------------


def test_batch_handler_gets_the_whole_bucket_once():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    batches = []
    singles = []
    net.register(1, singles.append, lambda msgs: batches.append(list(msgs)))
    for tag in ("a", "b", "c"):
        net.transmit(0, 1, make_message(payload=tag))
    sim.run()
    # One bucket, drained by the network itself: the per-message handler
    # sees it in send order and the batch handler is never invoked.
    assert [m.payload for m in singles] == ["a", "b", "c"]
    assert batches == []
    assert sim.events_processed == 1


def test_batch_handler_is_per_destination():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    batched = []
    first = []
    second = []
    net.register(1, first.append, lambda msgs: batched.extend(msgs))
    net.register(2, second.append)
    net.transmit(0, 1, make_message(payload="x"))
    net.transmit(0, 2, make_message(payload="y"))
    net.transmit(0, 1, make_message(payload="z"))
    sim.run()
    # With or without a batch handler, a destination gets its own
    # bucket through its own per-message handler.
    assert [m.payload for m in first] == ["x", "z"]
    assert [m.payload for m in second] == ["y"]
    assert batched == []


def test_unregister_detaches_batch_handler():
    sim = Simulator()
    net = Network(sim, FixedDelay(0.05))
    batches = []
    net.register(1, lambda m: None, lambda msgs: batches.append(msgs))
    net.unregister(1)
    net.transmit(0, 1, make_message())
    sim.run()
    assert batches == []
    assert net.dropped == 1


# -- node side: send-order dispatch, death mid-bucket ------------------------


def build_pair(overlay_cls=ChordOverlay):
    """Two nodes, and a key of 200's that 100 reaches in one hop."""
    sim = Simulator()
    overlay = overlay_cls(sim, KS)
    overlay.build_ring([100, 200])
    assert overlay.owner_of(200) == 200
    return sim, overlay


def test_chord_bucket_delivers_in_send_order_in_one_event():
    sim, overlay = build_pair()
    delivered = []
    overlay.set_deliver(
        lambda node_id, message: delivered.append((node_id, message.payload))
    )
    for tag in ("first", "second", "third"):
        overlay.send(100, 200, make_message(payload=tag))
    assert sim.pending == 1  # same tick, same destination: one bucket
    sim.run()
    assert delivered == [(200, "first"), (200, "second"), (200, "third")]
    assert sim.events_processed == 1


def check_mid_batch_crash_drops_remainder(overlay_cls):
    sim, overlay = build_pair(overlay_cls)
    delivered = []

    def crash_on_first_delivery(node_id, message):
        delivered.append(message.payload)
        overlay.crash(node_id)

    overlay.set_deliver(crash_on_first_delivery)
    overlay.send(100, 200, make_message(request_id=1, payload="first"))
    overlay.send(100, 200, make_message(request_id=2, payload="second"))
    overlay.send(100, 200, make_message(request_id=3, payload="third"))
    sim.run()
    # The first delivery kills the node; the network's loop re-reads
    # its liveness before each message, so the accounting is that of a
    # per-message engine (two drops, one delivery).
    assert delivered == ["first"]
    assert overlay.network.dropped == 2
    assert not overlay.is_alive(200)


def test_chord_mid_batch_crash_drops_remainder():
    check_mid_batch_crash_drops_remainder(ChordOverlay)


@pytest.mark.parametrize("overlay_cls", [PastryOverlay, CanOverlay])
def test_mid_batch_crash_drops_remainder(overlay_cls):
    # One loop in the network now serves all three overlays.  (Chord
    # keeps its own test above: its id predates the parameter.)
    check_mid_batch_crash_drops_remainder(overlay_cls)
