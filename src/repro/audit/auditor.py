"""The online auditor: shadow ledger, delivery oracle, probe scheduling.

The :class:`Auditor` attaches to a :class:`~repro.core.system.PubSubSystem`
and observes (never steers) the run:

- **Structural probes** fire on the simulated clock and verify the
  overlay's routing state against ground truth
  (:func:`repro.audit.invariants.probe_structure`).
- **Delivery correctness** replays every publication against the
  brute-force matching oracle (``Subscription.matches``) over a shadow
  ledger of every subscribe/unsubscribe the application issued, then —
  one delivery deadline later — flags expected-but-missing
  notifications (the paper's mapping-intersection-rule contract,
  §3) and classifies every arriving notification as true/false
  positive.
- **SLO histograms** record notification latency, hop dilation versus
  the overlay's ideal route length, and duplicate m-cast deliveries
  per publication.

Race tolerance: the simulated system is asynchronous, so the oracle is
deliberately lenient at the edges — a subscription installed, expiring
or removed within :data:`GRACE` seconds of a publication is *indeterminate*
(the subscribe/unsubscribe may still be in flight past the rendezvous)
and never produces a violation.  A clean run must report zero
violations; the fault-injection suite pins that each corruption class
still does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

from repro.audit.invariants import overlay_kind, probe_structure
from repro.audit.records import (
    MAPPING_INTERSECTION,
    NOTIFICATION_FALSE_POSITIVE,
    NOTIFICATION_MISROUTED,
    NOTIFICATION_MISSED,
    NOTIFICATION_UNKNOWN,
    ProbeRecord,
    Violation,
)
from repro.errors import ConfigurationError
from repro.overlay.ids import KeyRuns
from repro.sim.process import PeriodicTimer

if TYPE_CHECKING:
    from repro.core.events import Event
    from repro.core.payloads import Notification
    from repro.core.subscriptions import Subscription

#: Edge tolerance in seconds: subscriptions installed, expiring or
#: removed within this long of a publication are excluded from the
#: oracle's expectations.
GRACE = 2.0


@dataclasses.dataclass(frozen=True)
class AuditConfig:
    """Knobs of the online auditor.

    Attributes:
        probe_period: Seconds between structural probes (None lets the
            caller derive one from the run horizon).
        delivery_deadline: Seconds after a publication by which every
            expected notification must have arrived.  None auto-sizes
            from the system config: routing plus a buffering allowance
            (buffered notifications wait up to several flush periods).
    """

    probe_period: float | None = None
    delivery_deadline: float | None = None

    def __post_init__(self) -> None:
        for name in ("probe_period", "delivery_deadline"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")


class _LedgerEntry:
    """Shadow record of one subscription's application-level lifetime."""

    __slots__ = (
        "subscription", "keys", "subscriber", "t_subscribed", "expire_at",
        "t_unsubscribed",
    )

    def __init__(
        self,
        subscription: "Subscription",
        keys: KeyRuns,
        subscriber: int,
        t_subscribed: float,
        expire_at: float | None,
    ) -> None:
        self.subscription = subscription
        self.keys = keys  # SK(σ) as it was sent
        self.subscriber = subscriber
        self.t_subscribed = t_subscribed
        self.expire_at = expire_at
        self.t_unsubscribed: float | None = None


class _PendingPublication:
    """One publication awaiting its delivery-deadline evaluation."""

    __slots__ = ("event", "t", "request_id", "n_nodes", "expected", "arrivals")

    def __init__(
        self,
        event: "Event",
        t: float,
        request_id: int,
        n_nodes: int,
        expected: dict[int, _LedgerEntry],
    ) -> None:
        self.event = event
        self.t = t
        self.request_id = request_id
        self.n_nodes = n_nodes
        self.expected = expected
        self.arrivals: dict[int, int] = {}


@dataclasses.dataclass
class AuditReport:
    """Aggregated outcome of one audited run."""

    violations: list[Violation]
    probes: list[ProbeRecord]
    publications_audited: int
    publications_indeterminate: int
    deliveries_true: int
    deliveries_false: int
    deliveries_duplicate: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_type(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.vtype] = counts.get(violation.vtype, 0) + 1
        return counts


class Auditor:
    """Observes one system: shadow ledger + probes + SLO histograms.

    Constructing an auditor subscribes it to the system's observer tap
    (:mod:`repro.telemetry.tap`) and registers it on the system's
    telemetry (if enabled) so :func:`repro.telemetry.export.write_jsonl`
    emits its violations and probe records.
    """

    def __init__(self, system, config: AuditConfig | None = None) -> None:
        self._system = system
        self._sim = system.sim
        self._config = config or AuditConfig()
        self._mapping_name = system.mapping.name
        if self._config.delivery_deadline is not None:
            self._deadline = self._config.delivery_deadline
        else:
            sys_config = system.config
            buffered = sys_config.notification != "direct"
            self._deadline = 10.0 + (
                6.0 * sys_config.buffer_period if buffered else 0.0
            )
        kind = overlay_kind(system.overlay)
        self._overlay_kind = kind
        self.violations: list[Violation] = []
        self.probes: list[ProbeRecord] = []
        self._ledger: dict[int, _LedgerEntry] = {}
        self._pending: dict[int, _PendingPublication] = {}
        self._evaluated: set[int] = set()
        registry = system.telemetry.registry
        self._registry = registry
        self._latency_hist = registry.histogram("audit.notification_latency")
        self._dilation_hist = registry.histogram("audit.hop_dilation")
        self._duplicates_hist = registry.histogram("audit.duplicate_deliveries")
        name = self._mapping_name
        self._true_counter = registry.counter(
            "audit.deliveries_true", mapping=name
        )
        self._false_counter = registry.counter(
            "audit.deliveries_false", mapping=name
        )
        self._dup_counter = registry.counter(
            "audit.deliveries_duplicate", mapping=name
        )
        self._late_counter = registry.counter(
            "audit.deliveries_late", mapping=name
        )
        self._pubs_counter = registry.counter(
            "audit.publications_audited", mapping=name
        )
        self._indeterminate_counter = registry.counter(
            "audit.publications_indeterminate", mapping=name
        )
        self._probes_counter = registry.counter("audit.probes", overlay=kind)
        system.tap.attach(self)
        telemetry = system.telemetry
        if telemetry.enabled:
            telemetry.audit = self

    # -- structural probes ---------------------------------------------------

    def run_probe(self) -> ProbeRecord:
        """Snapshot the overlay and verify its structural invariants."""
        record, violations = probe_structure(self._system.overlay, self._sim.now)
        self.probes.append(record)
        self._probes_counter.inc()
        for violation in violations:
            self._record(violation)
        return record

    def schedule_probes(self, period: float, horizon: float | None = None) -> None:
        """Fire :meth:`run_probe` every ``period`` sim-seconds.

        ``horizon`` bounds the rescheduling (see
        :class:`~repro.sim.process.PeriodicTimer`); without it the
        probe chain would keep the event queue non-empty forever.
        """
        PeriodicTimer(self._sim, period, self.run_probe, horizon).start()

    # -- tap events: the application-level request stream ----------------------

    def on_subscribe(self, message, now: float) -> None:
        payload = message.payload
        self._ledger[payload.subscription.subscription_id] = _LedgerEntry(
            payload.subscription,
            KeyRuns.union(payload.groups),
            payload.subscriber,
            now,
            None if payload.ttl is None else now + payload.ttl,
        )

    def on_unsubscribe(self, message, now: float) -> None:
        entry = self._ledger.get(message.payload.subscription_id)
        if entry is not None and entry.t_unsubscribed is None:
            entry.t_unsubscribed = now

    def on_publish(self, message, keys: KeyRuns, now: float) -> None:
        event = message.payload.event
        if event.event_id in self._pending or event.event_id in self._evaluated:
            # Same event object published twice: arrivals would be
            # ambiguous, so only the first publication is audited.
            self._indeterminate_counter.inc()
            return
        expected: dict[int, _LedgerEntry] = {}
        for sid, entry in self._ledger.items():
            if entry.t_subscribed + GRACE > now:
                continue  # install may still be in flight
            if entry.expire_at is not None and entry.expire_at <= now + GRACE:
                continue  # TTL edge: may expire at the rendezvous first
            if not entry.subscription.matches(event):
                continue
            # The paper's §3 contract: e ∈ σ must imply EK(e) ∩ SK(σ) ≠ ∅,
            # for a removed σ too (its miss is excluded at evaluation).
            # An empty intersection means no rendezvous node can produce
            # the notification — flag the root cause instead of the
            # (certain) downstream miss.
            if entry.keys.isdisjoint(keys):
                self._record(
                    Violation(
                        MAPPING_INTERSECTION,
                        now,
                        node=entry.subscriber,
                        mapping=self._mapping_name,
                        detail=(
                            f"event {event.event_id} matches subscription "
                            f"{sid} but EK(e) ∩ SK(σ) = ∅"
                        ),
                    )
                )
                continue
            expected[sid] = entry
        self._pending[event.event_id] = _PendingPublication(
            event, now, message.request_id, len(self._system.overlay), expected
        )
        self._pubs_counter.inc()
        self._sim.schedule_at(now + self._deadline, self._evaluate, event.event_id)

    def on_notify(
        self, node_id: int, notifications: tuple["Notification", ...], now: float
    ) -> None:
        """Classify one delivered batch (pre-deduplication)."""
        for notification in notifications:
            self._latency_hist.observe(now - notification.published_at)
            sid = notification.subscription_id
            entry = self._ledger.get(sid)
            if entry is None:
                self._false_counter.inc()
                self._record(
                    Violation(
                        NOTIFICATION_UNKNOWN,
                        now,
                        node=node_id,
                        mapping=self._mapping_name,
                        detail=f"notification for unknown subscription {sid}",
                    )
                )
                continue
            if not entry.subscription.matches(notification.event):
                self._false_counter.inc()
                self._record(
                    Violation(
                        NOTIFICATION_FALSE_POSITIVE,
                        now,
                        node=node_id,
                        mapping=self._mapping_name,
                        detail=(
                            f"event {notification.event.event_id} does not "
                            f"match subscription {sid}"
                        ),
                    )
                )
                continue
            self._true_counter.inc()
            if node_id != entry.subscriber:
                self._record(
                    Violation(
                        NOTIFICATION_MISROUTED,
                        now,
                        node=node_id,
                        mapping=self._mapping_name,
                        detail=(
                            f"subscription {sid} delivered at {node_id}, "
                            f"subscriber is {entry.subscriber}"
                        ),
                    )
                )
            event_id = notification.event.event_id
            pending = self._pending.get(event_id)
            if pending is not None:
                pending.arrivals[sid] = pending.arrivals.get(sid, 0) + 1
            elif event_id in self._evaluated:
                self._late_counter.inc()

    # -- deadline evaluation -------------------------------------------------

    def _evaluate(self, event_id: int) -> None:
        pending = self._pending.pop(event_id, None)
        if pending is None:
            return
        self._evaluated.add(event_id)
        now = self._sim.now
        overlay = self._system.overlay
        duplicates = 0
        for sid, count in pending.arrivals.items():
            if count > 1:
                duplicates += count - 1
        for sid, entry in pending.expected.items():
            if pending.arrivals.get(sid, 0) > 0:
                continue
            if (
                entry.t_unsubscribed is not None
                and entry.t_unsubscribed <= pending.t + GRACE
            ):
                continue  # removed before, or raced, the publication
            if not overlay.is_alive(entry.subscriber):
                continue  # subscriber gone: nothing left to deliver to
            self._record(
                Violation(
                    NOTIFICATION_MISSED,
                    now,
                    node=entry.subscriber,
                    mapping=self._mapping_name,
                    detail=(
                        f"event {pending.event.event_id} matches "
                        f"subscription {sid} but no notification arrived "
                        f"within {self._deadline}s"
                    ),
                )
            )
        self._duplicates_hist.observe(float(duplicates))
        if duplicates:
            self._dup_counter.inc(duplicates)
        trace = self._system.recorder.messages.traces.get(pending.request_id)
        if trace is not None and trace.max_path_hops > 0:
            self._dilation_hist.observe(
                trace.max_path_hops / self._ideal_hops(pending.n_nodes)
            )

    def _ideal_hops(self, n_nodes: int) -> float:
        """Ideal route length: log₂(n) for ring overlays, √n for CAN."""
        if n_nodes <= 1:
            return 1.0
        if self._overlay_kind == "can":
            return max(1.0, math.sqrt(n_nodes))
        return max(1.0, math.ceil(math.log2(n_nodes)))

    # -- reporting -----------------------------------------------------------

    def finalize(self) -> AuditReport:
        """Evaluate what is still pending and build the report.

        Publications whose deadline lies beyond the current sim time
        (the run's horizon cut them off) are *indeterminate*: in-flight
        deliveries may have been truncated with the run, so no missed
        violations are derived from them.
        """
        now = self._sim.now
        for event_id in list(self._pending):
            pending = self._pending[event_id]
            if now >= pending.t + self._deadline:
                self._evaluate(event_id)
            else:
                self._pending.pop(event_id)
                self._indeterminate_counter.inc()
        return self.report()

    def report(self) -> AuditReport:
        return AuditReport(
            violations=list(self.violations),
            probes=list(self.probes),
            publications_audited=self._pubs_counter.value,
            publications_indeterminate=self._indeterminate_counter.value,
            deliveries_true=self._true_counter.value,
            deliveries_false=self._false_counter.value,
            deliveries_duplicate=self._dup_counter.value,
        )

    def _record(self, violation: Violation) -> None:
        self.violations.append(violation)
        self._registry.counter("audit.violations", vtype=violation.vtype).inc()
