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
drops without a dict lookup.
"""

from __future__ import annotations

from typing import Iterable

#: Span statuses.
ROOT = "root"
SENT = "sent"
DROPPED = "dropped"
LOST = "lost"


class Span:
    """One hop (or request root) in the causal message graph."""

    __slots__ = (
        "id", "parent", "request_id", "kind", "src", "dst",
        "t_send", "t_recv", "status",
    )

    def __init__(
        self,
        span_id: int,
        parent: int,
        request_id: int,
        kind: str,
        src: int,
        dst: int,
        t_send: float,
        t_recv: float | None,
        status: str,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.request_id = request_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.t_send = t_send
        self.t_recv = t_recv
        self.status = status

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "request": self.request_id,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "t_send": self.t_send,
            "t_recv": self.t_recv,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            record["id"], record["parent"], record["request"],
            record["kind"], record["src"], record["dst"],
            record["t_send"], record["t_recv"], record["status"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.id}<-{self.parent} req={self.request_id} "
            f"{self.kind} {self.src}->{self.dst} {self.status})"
        )


#: One application delivery: (span_id, request_id, node_id, time).
Delivery = tuple[int, int, int, float]


class Tracer:
    """Accumulates spans and deliveries for one traced run.

    A tap subscriber: it roots a span at every ``request``, adds one at
    every ``send`` and stamps the new id onto the envelope itself, so
    parentage stays exact through in-place forwarding.
    """

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._deliveries: list[Delivery] = []

    @property
    def spans(self) -> list[Span]:
        return self._spans

    @property
    def deliveries(self) -> list[Delivery]:
        return self._deliveries

    def on_request(self, message, now: float) -> None:
        """Open the root span of a logical request.

        ``message.trace`` arrives naming the span that caused the
        request — 0, or for a notification the publication hop that
        matched it, a span of *another* request; within its own request
        the new span is still the root.
        """
        spans = self._spans
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
        spans = self._spans
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
        if 0 < span_id <= len(self._spans):
            self._spans[span_id - 1].status = DROPPED

    def on_deliver(self, message, node_id: int, now: float) -> None:
        """Record an application delivery caused by ``message.trace``."""
        self._deliveries.append(
            (message.trace, message.request_id, node_id, now)
        )

    def spans_for_request(self, request_id: int) -> list[Span]:
        return [s for s in self._spans if s.request_id == request_id]


class NullTracer(Tracer):
    """The tracer of an untraced run: subscribes to no event at all."""

    on_request = on_send = on_drop = on_deliver = None


# -- tree reconstruction ----------------------------------------------------


def request_tree(
    spans: Iterable[Span], request_id: int
) -> tuple[list[int], set[int]]:
    """Roots and root-reachable span ids of one request's span graph.

    A request's roots are its ``root``-status spans (their ``parent``
    may point into another request — cross-request causality — which
    does not affect in-request reachability).
    """
    children: dict[int, list[int]] = {}
    roots: list[int] = []
    ids: set[int] = set()
    for span in spans:
        if span.request_id != request_id:
            continue
        ids.add(span.id)
        if span.status == ROOT:
            roots.append(span.id)
        else:
            children.setdefault(span.parent, []).append(span.id)
    reachable: set[int] = set()
    frontier = list(roots)
    while frontier:
        span_id = frontier.pop()
        if span_id in reachable:
            continue
        reachable.add(span_id)
        frontier.extend(children.get(span_id, ()))
    return roots, reachable


def delivery_coverage(
    spans: Iterable[Span], deliveries: Iterable[Delivery]
) -> dict[int, bool]:
    """Per request: is every delivery reachable from the request's root?

    This is the telemetry acceptance property — a publication's full
    m-cast tree is reconstructable iff each of its deliveries hangs off
    a span that walks back to the root.  Requests with no deliveries
    are omitted.
    """
    spans = list(spans)
    per_request: dict[int, list[Delivery]] = {}
    for delivery in deliveries:
        per_request.setdefault(delivery[1], []).append(delivery)
    coverage: dict[int, bool] = {}
    for request_id, delivered in per_request.items():
        _, reachable = request_tree(spans, request_id)
        coverage[request_id] = all(
            span_id in reachable for span_id, _, _, _ in delivered
        )
    return coverage
