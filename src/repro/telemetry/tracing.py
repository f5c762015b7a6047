"""Causal message tracing: one span per one-hop transmission.

Every :class:`~repro.overlay.api.OverlayMessage` carries the id of the
span that put it where it is (``message.trace``).  When the network
transmits it one hop, the tracer emits a new span whose parent is that
id and stamps the new id back onto the envelope — so an m-cast fan-out
naturally records its tree (each branch copies the arriving hop's id
before transmitting), and an application delivery records which hop
produced it.  Requests start with a **root span** (parent 0, src = dst
= origin); notification roots may additionally point at the publication
hop that matched them, chaining publish → match → notify end to end.

Span times are simulated seconds: ``t_send`` is when the sender handed
the message to the network (enqueue), ``t_recv`` when the receiver's
drain handles it (dequeue == handle in this kernel: buckets drain at
their arrival tick).  A span's status records its fate — ``sent``
spans reached a live receiver, ``dropped`` ones found the destination
dead at drain time, ``lost`` ones were eaten by the loss model in
flight (``t_recv`` is None).

Span ids are 1-based and dense, so the tracer resolves an id to its
span with one list index — cheap enough for the drain loop to mark
drops without a dict lookup.  The reader
(:func:`repro.telemetry.reader.request_tree`) rebuilds each request's
tree from the exported spans.
"""

from __future__ import annotations

import dataclasses

#: Span statuses.
ROOT = "root"
SENT = "sent"
DROPPED = "dropped"
LOST = "lost"


@dataclasses.dataclass(slots=True, eq=False)
class Span:
    """One hop (or request root) in the causal message graph."""

    id: int
    parent: int
    request: int
    kind: str
    src: int
    dst: int
    t_send: float
    t_recv: float | None
    status: str

    def as_dict(self) -> dict:
        """The span's export record, minus its ``type``."""
        return {field: getattr(self, field) for field in self.__slots__}


#: One application delivery: (span_id, request_id, node_id, time).
Delivery = tuple[int, int, int, float]


class Tracer:
    """Accumulates spans and deliveries for one traced run.

    A tap subscriber: it roots a span at every ``request``, adds one at
    every ``send`` and stamps the new id onto the envelope itself, so
    parentage stays exact through in-place forwarding.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.deliveries: list[Delivery] = []

    def on_request(self, message, now: float) -> None:
        """Open the root span of a logical request.

        ``message.trace`` arrives naming the span that caused the
        request — 0, or for a notification the publication hop that
        matched it, a span of *another* request; within its own request
        the new span is still the root.
        """
        spans = self.spans
        span_id = len(spans) + 1
        origin = message.origin
        spans.append(
            Span(span_id, message.trace, message.request_id,
                 message.kind.value, origin, origin, now, now, ROOT)
        )
        message.trace = span_id

    def on_send(
        self, message, src: int, dst: int, now: float, arrival: float | None
    ) -> None:
        """Record one one-hop transmission (``arrival`` None: lost)."""
        spans = self.spans
        span_id = len(spans) + 1
        spans.append(
            Span(span_id, message.trace, message.request_id,
                 message.kind.value, src, dst, now, arrival,
                 SENT if arrival is not None else LOST)
        )
        message.trace = span_id

    def on_drop(self, message, dst: int, now: float) -> None:
        """Flag the hop whose destination was dead at drain time."""
        span_id = message.trace
        if 0 < span_id <= len(self.spans):
            self.spans[span_id - 1].status = DROPPED

    def on_deliver(self, message, node_id: int, now: float) -> None:
        """Record an application delivery caused by ``message.trace``."""
        self.deliveries.append(
            (message.trace, message.request_id, node_id, now)
        )


class NullTracer(Tracer):
    """The tracer of an untraced run: subscribes to no event at all."""

    on_request = on_send = on_drop = on_deliver = None
