"""The per-run metrics bundle.

One :class:`MetricsRecorder` lives for the duration of a simulation run.
The hop count is the run's output, not an optional observer: the
network counts every one-hop send, and the overlay every delivery,
straight into the recorder's :class:`MessageStats` dicts.  The recorder
is also the first subscriber of the network's observer tap
(:mod:`repro.telemetry.tap`), for the two pub/sub-level events only:
``request`` (a request's trace opens) and ``notify`` (a notification
batch arrives).  The experiment runner feeds it storage snapshots; the
figure harnesses read aggregated views off it at the end.
"""

from __future__ import annotations

from repro.metrics.counters import MessageStats, StorageStats
from repro.metrics.stats import Summary, summarize
from repro.overlay.api import MessageKind


class MetricsRecorder:
    """Bundles message accounting and storage sampling for one run."""

    def __init__(self) -> None:
        self.messages = MessageStats()
        self.storage = StorageStats()
        self._notified_events: int = 0
        self._matched_notifications: int = 0
        self._notification_delays: list[float] = []
        # The tap's request event goes straight to the message
        # accounting: no forwarding frame.
        self.on_request = self.messages.on_request

    # -- pub/sub-level counters ----------------------------------------

    def on_notify(self, node_id: int, notifications, now: float) -> None:
        """Count one notification batch delivered at its subscriber.

        Buffering/collecting (Section 4.3.2) packs several matches into
        one message — the batch count against the matches it carried is
        exactly what this separates from the one-hop message count —
        "introducing only a delay in the notification itself", which the
        publish-to-delivery latency of every match measures.
        """
        self._notified_events += 1
        self._matched_notifications += len(notifications)
        delays = self._notification_delays
        for notification in notifications:
            delays.append(now - notification.published_at)

    @property
    def notification_batches(self) -> int:
        """Number of notification batches delivered to subscribers."""
        return self._notified_events

    @property
    def matched_notifications(self) -> int:
        """Total matched events delivered inside those batches."""
        return self._matched_notifications

    def merge_from(self, other: "MetricsRecorder") -> None:
        """Fold a shard worker's partial recorder into this one.

        The sharded coordinator calls this once per shard, in shard-id
        order.  The behavior fingerprint
        (:mod:`repro.metrics.fingerprint`) is order-invariant, so the
        merge order cannot affect the digest — but keeping it fixed
        keeps the *raw* merged views (delivery lists, delay sequences)
        deterministic too.
        """
        self.messages.merge_from(other.messages)
        self.storage.merge_from(other.storage)
        self._notified_events += other._notified_events
        self._matched_notifications += other._matched_notifications
        self._notification_delays.extend(other._notification_delays)

    def notification_delay_summary(self) -> Summary:
        """Summary of publish-to-delivery latencies."""
        return summarize(self._notification_delays)

    # -- aggregated views ----------------------------------------------

    def mean_hops(self, kind: MessageKind) -> float:
        """Average one-hop messages per request for ``kind``."""
        return self.messages.mean_hops_per_request(kind)
