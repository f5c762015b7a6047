"""Unit tests for span tracing and causal-tree reconstruction."""

import random

import pytest

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.reader import delivery_coverage, load_jsonl, request_tree
from repro.telemetry.tap import Tap
from repro.telemetry.tracing import (
    DROPPED,
    LOST,
    ROOT,
    SENT,
    NullTracer,
    Span,
    Tracer,
)

PUB = MessageKind.PUBLICATION


def span_records(tracer):
    """The tracer's spans as the export writes them."""
    return [span.as_dict() for span in tracer.spans]


def delivery_records(tracer):
    """The tracer's deliveries as the export writes them."""
    return [
        {"span": span, "request": request, "node": node, "t": t}
        for span, request, node, t in tracer.deliveries
    ]


def request(tracer, request_id, kind=PUB, origin=1, now=0.0, parent=0):
    """Open a request as ``PubSubSystem`` does; its envelope carries the
    root span id in ``trace``."""
    message = OverlayMessage(
        kind=kind, payload=None, request_id=request_id, origin=origin,
        trace=parent,
    )
    tracer.on_request(message, now)
    return message


def hop(tracer, message, src, dst, now, arrival):
    """Forward a copy of ``message`` one hop; returns the copy, whose
    ``trace`` is the new span id."""
    copy = message.forwarded_copy(src)
    tracer.on_send(copy, src, dst, now, arrival)
    return copy


def test_root_and_hop_spans_link_causally():
    tracer = Tracer()
    root = request(tracer, 7, origin=10)
    first = hop(tracer, root, 10, 20, 0.0, 0.05)
    second = hop(tracer, first, 20, 30, 0.05, 0.10)
    spans = tracer.spans
    assert [s.id for s in spans] == [1, 2, 3]
    assert spans[0].status == ROOT
    assert spans[1].parent == root.trace
    assert spans[2].parent == first.trace
    assert spans[2].status == SENT
    assert second.trace == 3


def test_mark_dropped_and_lost_status():
    tracer = Tracer()
    root = request(tracer, 1)
    sent = hop(tracer, root, 1, 2, 0.0, 0.05)
    tracer.on_drop(sent, 2, 0.05)
    assert tracer.spans[sent.trace - 1].status == DROPPED
    lost = hop(tracer, root, 1, 3, 0.0, None)
    assert tracer.spans[lost.trace - 1].status == LOST
    assert tracer.spans[lost.trace - 1].t_recv is None
    untraced = OverlayMessage(kind=PUB, payload=None, request_id=1, origin=1)
    tracer.on_drop(untraced, 2, 0.05)  # trace 0: must be a no-op
    untraced.trace = 999
    tracer.on_drop(untraced, 2, 0.05)  # out of range: must be a no-op
    assert [s.status for s in tracer.spans] == [ROOT, DROPPED, LOST]


def test_request_tree_reconstructs_mcast_fanout():
    tracer = Tracer()
    root = request(tracer, 5)
    left = hop(tracer, root, 1, 2, 0.0, 0.05)
    right = hop(tracer, root, 1, 3, 0.0, 0.05)
    leaf = hop(tracer, left, 2, 4, 0.05, 0.10)
    other = request(tracer, 6, kind=MessageKind.SUBSCRIPTION, origin=9)
    roots, reachable = request_tree(span_records(tracer), 5)
    assert roots == [root.trace]
    assert reachable == {root.trace, left.trace, right.trace, leaf.trace}
    assert other.trace not in reachable


def test_cross_request_parent_does_not_break_tree():
    # A notification root may point at a publication hop (another
    # request); within its own request it still counts as the root.
    tracer = Tracer()
    pub_root = request(tracer, 1)
    pub_hop = hop(tracer, pub_root, 1, 2, 0.0, 0.05)
    notify_root = request(
        tracer, 2, kind=MessageKind.NOTIFICATION, origin=2, now=0.05,
        parent=pub_hop.trace,
    )
    notify_hop = hop(tracer, notify_root, 2, 3, 0.05, 0.10)
    roots, reachable = request_tree(span_records(tracer), 2)
    assert roots == [notify_root.trace]
    assert reachable == {notify_root.trace, notify_hop.trace}
    assert tracer.spans[notify_root.trace - 1].parent == pub_hop.trace


def test_delivery_coverage_detects_orphans():
    tracer = Tracer()
    root = request(tracer, 1)
    sent = hop(tracer, root, 1, 2, 0.0, 0.05)
    tracer.on_deliver(sent, 2, 0.05)
    # Request 2: a delivery hanging off a parentless hop (orphan).
    orphan = OverlayMessage(
        kind=PUB, payload=None, request_id=2, origin=5, trace=999
    )
    tracer.on_send(orphan, 5, 6, 0.0, 0.05)
    tracer.on_deliver(orphan, 6, 0.05)
    coverage = delivery_coverage(span_records(tracer), delivery_records(tracer))
    assert coverage[1] is True
    assert coverage[2] is False


def test_span_dict_round_trip(tmp_path):
    # The reader keeps a span as the record the writer wrote.
    span = Span(3, 1, 9, "collect", 4, 5, 1.0, 1.05, SENT)
    tracer = Tracer()
    tracer.spans.append(span)
    path = tmp_path / "one-span.jsonl"
    write_jsonl(Telemetry(tracer=tracer), path)
    (record,) = load_jsonl(path)["span"]
    assert record == {**span.as_dict(), "type": "span"}


def test_null_tracer_records_nothing():
    # A NullTracer has no event to subscribe to, so a tap never calls it.
    tracer = NullTracer()
    tap = Tap()
    tap.attach(tracer)
    assert (tap.request, tap.send, tap.drop, tap.deliver) == ((), (), (), ())
    assert tracer.spans == []
    assert tracer.deliveries == []


@pytest.mark.parametrize("overlay_cls", [ChordOverlay, CanOverlay])
def test_mcast_branches_of_one_step_share_their_parent(overlay_cls):
    """Every branch a node sends in one m-cast step was caused by the
    hop that brought the message there, not by a sibling branch: the
    tracer stamps each envelope it sees sent, so the copies are made
    before the envelope itself leaves."""
    sim = Simulator()
    telemetry = Telemetry()
    overlay = overlay_cls(sim, KeySpace(13), Network(sim, telemetry=telemetry))
    overlay.build_ring(random.Random(3).sample(range(1 << 13), 60))
    source = overlay.node_ids()[0]
    message = OverlayMessage(
        kind=PUB, payload=None, request_id=next_request_id(), origin=source
    )
    overlay.mcast(source, range(0, 1 << 13, 37), message)
    sim.run()
    spans = telemetry.tracer.spans
    parents: dict[tuple[int, float], set[int]] = {}
    for span in spans:
        parents.setdefault((span.src, span.t_send), set()).add(span.parent)
    assert len(spans) > len(parents)  # some step sent several branches
    assert all(len(step) == 1 for step in parents.values())
