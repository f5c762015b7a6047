"""Message and storage counters.

"Hops per request" in the paper counts every one-hop transmission that a
logical request (one ``sub()``, one ``pub()``, one notification batch)
causes anywhere in the system, including routing hops through
intermediate overlay nodes.  :class:`MessageStats` attributes each
one-hop send to its originating request via the request id carried by
every :class:`~repro.overlay.api.OverlayMessage`.
"""

from __future__ import annotations

import dataclasses

from repro.overlay.api import MessageKind


@dataclasses.dataclass
class RequestTrace:
    """Per-request accounting record.

    Attributes:
        request_id: The request this trace belongs to.
        kind: Request type (subscription / publication / notification...).
        start_time: Simulated time the request was initiated.
        one_hop_messages: Total one-hop transmissions caused so far.
        deliveries: ``(node_id, time)`` for each application delivery.
        max_path_hops: Largest per-copy hop count observed at delivery
            time — the *delivery dilation* of Section 4.3.1.
    """

    request_id: int
    kind: MessageKind
    start_time: float
    one_hop_messages: int = 0
    deliveries: list[tuple[int, float]] = dataclasses.field(default_factory=list)
    max_path_hops: int = 0

    @property
    def delivery_count(self) -> int:
        """Number of application-level deliveries for this request."""
        return len(self.deliveries)

    @property
    def last_delivery_time(self) -> float | None:
        """Time of the latest delivery, or None if nothing delivered."""
        if not self.deliveries:
            return None
        return max(time for _, time in self.deliveries)


class MessageStats:
    """Aggregates one-hop message counts by kind and by request.

    Nothing here is called per message.  The two places a message is
    counted write these dicts inline — :meth:`Network.transmit
    <repro.overlay.network.Network.transmit>` a send,
    :meth:`OverlayNetwork.do_deliver
    <repro.overlay.api.OverlayNetwork.do_deliver>` a delivery — the way
    the network bumps its own ``dropped`` / ``lost`` counters.  Both hold
    the dicts by reference, so they are mutated, never rebound.

    Attributes:
        sends_by_kind: One-hop sends per :class:`MessageKind`, every
            kind present from the start.
        traces: Per-request traces, keyed by request id.  A request's
            trace opens at its ``request`` event, or at the first send
            or delivery seen for it: a shard worker meets requests
            another shard began, as a hop to forward or as a terminal
            delivery.
    """

    def __init__(self) -> None:
        self.sends_by_kind: dict[MessageKind, int] = dict.fromkeys(MessageKind, 0)
        self.traces: dict[int, RequestTrace] = {}

    def begin_request(
        self, kind: MessageKind, request_id: int, time: float
    ) -> RequestTrace:
        """Register the start of a logical request."""
        trace = RequestTrace(request_id=request_id, kind=kind, start_time=time)
        self.traces[request_id] = trace
        return trace

    def on_request(self, message, now: float) -> None:
        """Tap event: a logical request opened."""
        self.begin_request(message.kind, message.request_id, now)

    def merge_from(self, other: "MessageStats") -> None:
        """Fold another partial's accounting into this one.

        The sharded kernel records each shard's sends and deliveries in
        a private recorder; the coordinator merges the partials in shard
        order.  A request's trace may exist in *several* partials (the
        origin shard begins it, every shard that forwards a hop of it or
        delivers it lazily begins it), so traces merge field-wise:
        hop counts add, deliveries concatenate, the dilation maximum and
        the earliest start time win.
        """
        sends = self.sends_by_kind
        for kind, count in other.sends_by_kind.items():
            sends[kind] += count
        traces = self.traces
        for request_id, partial in other.traces.items():
            trace = traces.get(request_id)
            if trace is None:
                traces[request_id] = dataclasses.replace(
                    partial, deliveries=list(partial.deliveries)
                )
                continue
            trace.one_hop_messages += partial.one_hop_messages
            trace.deliveries.extend(partial.deliveries)
            trace.max_path_hops = max(trace.max_path_hops, partial.max_path_hops)
            trace.start_time = min(trace.start_time, partial.start_time)

    def total_sends(self, kind: MessageKind | None = None) -> int:
        """Total one-hop messages of ``kind`` (or of all kinds)."""
        if kind is None:
            return sum(self.sends_by_kind.values())
        return self.sends_by_kind[kind]

    def requests_of_kind(self, kind: MessageKind) -> list[RequestTrace]:
        """All traces for requests of the given kind."""
        return [t for t in self.traces.values() if t.kind == kind]

    def hops_per_request(self, kind: MessageKind) -> list[int]:
        """One-hop message counts, one entry per request of ``kind``."""
        return [t.one_hop_messages for t in self.requests_of_kind(kind)]

    def mean_hops_per_request(self, kind: MessageKind) -> float:
        """Average one-hop messages per request of ``kind`` (0.0 if none)."""
        hops = self.hops_per_request(kind)
        if not hops:
            return 0.0
        return sum(hops) / len(hops)

    def mean_dilation(self, kind: MessageKind) -> float:
        """Average delivery dilation (max per-copy hops) of ``kind``."""
        dilations = [
            t.max_path_hops for t in self.requests_of_kind(kind) if t.deliveries
        ]
        if not dilations:
            return 0.0
        return sum(dilations) / len(dilations)


class StorageStats:
    """Snapshots of subscriptions stored per node (Figs. 6 and 8).

    The harness samples the subscription stores periodically; the
    figures report the maximum (and, per the paper's remark, the
    average follows the same trend) over nodes at the end of a run.
    """

    def __init__(self) -> None:
        self._snapshots: list[tuple[float, dict[int, int]]] = []

    def snapshot(self, time: float, per_node_counts: dict[int, int]) -> None:
        """Record the number of stored subscriptions per node at ``time``."""
        self._snapshots.append((time, dict(per_node_counts)))

    def merge_from(self, other: "StorageStats") -> None:
        """Fold another partial's snapshots into this one.

        Shard workers snapshot their *local* nodes at identical sample
        times; merging unions the per-node maps of same-time snapshots
        (node sets are disjoint across shards) and re-sorts by time.
        """
        by_time: dict[float, dict[int, int]] = {}
        for time, counts in self._snapshots:
            by_time.setdefault(time, {}).update(counts)
        for time, counts in other._snapshots:
            by_time.setdefault(time, {}).update(counts)
        self._snapshots = [(time, by_time[time]) for time in sorted(by_time)]

    @property
    def snapshots(self) -> list[tuple[float, dict[int, int]]]:
        """All recorded ``(time, {node_id: count})`` snapshots."""
        return self._snapshots

    def latest(self) -> dict[int, int]:
        """The most recent per-node counts (empty if never sampled)."""
        if not self._snapshots:
            return {}
        return self._snapshots[-1][1]

    def max_per_node(self) -> int:
        """Maximum subscriptions on any node in the latest snapshot."""
        counts = self.latest()
        return max(counts.values(), default=0)

    def mean_per_node(self) -> float:
        """Average subscriptions per node in the latest snapshot."""
        counts = self.latest()
        if not counts:
            return 0.0
        return sum(counts.values()) / len(counts)

    def peak_max_per_node(self) -> int:
        """Largest per-node count observed across **all** snapshots.

        With subscription expiration the interesting quantity is the
        steady-state occupancy *during* the run, not whatever remains
        at the horizon — the harness samples periodically and the
        figures report this peak (Figs. 6 and 8).
        """
        peak = 0
        for _, counts in self._snapshots:
            peak = max(peak, max(counts.values(), default=0))
        return peak

    def peak_mean_per_node(self) -> float:
        """Largest per-snapshot average across all snapshots."""
        peak = 0.0
        for _, counts in self._snapshots:
            if counts:
                peak = max(peak, sum(counts.values()) / len(counts))
        return peak
