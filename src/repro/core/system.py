"""The public facade of the content-based pub/sub system.

:class:`PubSubSystem` wires the three strata of Fig. 2 together: the
application calls ``subscribe`` / ``publish`` / ``unsubscribe`` and
registers notification handlers; the system computes the ak-mapping,
propagates requests through the overlay (by unicast, the paper's
``m-cast`` primitive, or the conservative sequential baseline), and
runs the rendezvous/notification machinery at every node.

Example:
    >>> from repro.sim import Simulator
    >>> from repro.overlay.ids import KeySpace
    >>> from repro.overlay.chord import ChordOverlay
    >>> from repro.core import EventSpace, Subscription, PubSubSystem
    >>> from repro.core.mappings import make_mapping
    >>> sim = Simulator()
    >>> overlay = ChordOverlay(sim, KeySpace(13))
    >>> overlay.build_ring(range(0, 8192, 16))
    >>> space = EventSpace.uniform(("price", "volume"), 1_000_001)
    >>> mapping = make_mapping("selective-attribute", space, overlay.keyspace)
    >>> system = PubSubSystem(sim, overlay, mapping)
    >>> got = []
    >>> system.set_global_notify_handler(lambda node, ns: got.extend(ns))
    >>> sigma = Subscription.build(space, price=(100, 200))
    >>> _ = system.subscribe(16, sigma)
    >>> _ = system.publish(4096, space.make_event(price=150, volume=7))
    >>> _ = sim.run()
    >>> [n.subscription_id for n in got] == [sigma.subscription_id]
    True
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.events import Event
from repro.core.mappings.base import AKMapping, flat_keys
from repro.core.node import PubSubNode
from repro.core.payloads import (
    CollectPayload,
    Notification,
    NotifyPayload,
    PublishPayload,
    ReplicaPayload,
    ReplicaRemovePayload,
    StateTransferPayload,
    StoredSubscription,
    SubscribePayload,
    UnsubscribePayload,
)
from repro.core.subscriptions import Subscription
from repro.errors import ConfigurationError
from repro.metrics.recorder import MetricsRecorder
from repro.overlay.api import (
    MessageKind,
    NeighborSide,
    OverlayMessage,
    OverlayNetwork,
    RoutingMode,
    next_request_id,
)
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer
from repro.telemetry import Telemetry


NotifyHandler = Callable[[int, list[Notification]], None]


@dataclasses.dataclass
class PubSubConfig:
    """Behavioral switches of the CB-pub/sub layer.

    Attributes:
        routing: Propagation scheme for multi-key sends.
        buffering: Enable notification buffering (Section 4.3.2).
        collecting: Enable coordinated collecting toward range agents;
            requires ``buffering``.
        buffer_period: Seconds between buffer flushes (Fig. 9(a) sweeps
            1x, 2x and 5x the average publication period).
        default_ttl: Default subscription expiration in seconds (None =
            subscriptions never expire; Fig. 6 sweeps this).
        replication_factor: Number of ring successors holding a replica
            of each stored subscription (0 disables replication).
        failure_detection_delay: Seconds between a crash and replica
            promotion at the successor.
        matcher: Matching engine at rendezvous nodes: "grid" (default;
            the indexed engine, O(candidates) per event), "radix" (the
            radix-block index, best when stored constraints are mostly
            equalities), or "brute" (the O(stored) reference oracle).
            A store builds it when it reaches
            :data:`~repro.core.rendezvous.SCAN_LIMIT` entries and
            scans its entries until then.
        covering: Collapse covered subscriptions at rendezvous nodes
            (:class:`~repro.matching.covering.CoveringIndex`) so the
            matching engine only sees the least-covered roots.  None
            (default) enables covering with every engine except
            "brute", which stays the uncollapsed oracle; True/False
            force it on/off regardless of engine.
    """

    routing: RoutingMode = RoutingMode.MCAST
    buffering: bool = False
    collecting: bool = False
    buffer_period: float = 5.0
    default_ttl: float | None = None
    replication_factor: int = 0
    failure_detection_delay: float = 0.5
    matcher: str = "grid"
    covering: bool | None = None

    def __post_init__(self) -> None:
        if self.collecting and not self.buffering:
            raise ConfigurationError("collecting requires buffering")
        if self.buffer_period <= 0:
            raise ConfigurationError("buffer_period must be positive")
        if self.replication_factor < 0:
            raise ConfigurationError("replication_factor must be >= 0")


class PubSubSystem:
    """Content-based pub/sub over a structured overlay (the paper's system)."""

    def __init__(
        self,
        sim: Simulator,
        overlay: OverlayNetwork,
        mapping: AKMapping,
        config: PubSubConfig | None = None,
    ) -> None:
        if mapping.keyspace != overlay.keyspace:
            raise ConfigurationError("mapping and overlay key spaces differ")
        self._sim = sim
        self._overlay = overlay
        self._mapping = mapping
        self._config = config or PubSubConfig()
        self._nodes: dict[int, PubSubNode] = {}
        self._flush_timers: dict[int, PeriodicTimer] = {}
        self._notify_handlers: dict[int, NotifyHandler] = {}
        self._global_notify: NotifyHandler | None = None
        #: The observer tap of the overlay's network: every request,
        #: notification and rendezvous event of this layer is announced
        #: there (see :mod:`repro.telemetry.tap`).
        self.tap = overlay.network.tap
        overlay.set_deliver(self._on_deliver)
        overlay.set_state_transfer(self._on_state_transfer)
        # app_node_ids == node_ids on a serial overlay; a sharded
        # overlay attaches pub/sub state to its local arc only.
        for node_id in overlay.app_node_ids():
            self._attach(node_id)

    # -- properties -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._sim.now

    @property
    def sim(self) -> Simulator:
        """The simulation kernel."""
        return self._sim

    @property
    def overlay(self) -> OverlayNetwork:
        """The underlying overlay network."""
        return self._overlay

    @property
    def mapping(self) -> AKMapping:
        """The active ak-mapping."""
        return self._mapping

    @property
    def config(self) -> PubSubConfig:
        """The layer configuration."""
        return self._config

    @property
    def recorder(self) -> MetricsRecorder:
        """Metrics recorder shared with the overlay network."""
        return self._overlay.recorder

    @property
    def telemetry(self) -> Telemetry:
        """Observability sink shared with the overlay network."""
        return self._overlay.telemetry

    def node(self, node_id: int) -> PubSubNode:
        """The pub/sub layer instance at an overlay node."""
        return self._nodes[node_id]

    # -- membership ------------------------------------------------------------

    def _attach(self, node_id: int) -> None:
        if node_id in self._nodes:
            return
        node = self._nodes[node_id] = PubSubNode(node_id, self)
        for fn in self.tap.join:
            fn(node)
        if self._config.buffering:
            timer = PeriodicTimer(
                self._sim, self._config.buffer_period, node.flush
            )
            timer.start()
            self._flush_timers[node_id] = timer

    def _detach(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)
        timer = self._flush_timers.pop(node_id, None)
        if timer is not None:
            timer.stop()

    def add_node(self, node_id: int) -> None:
        """Join a new node; stored state follows the KN-mapping."""
        self._overlay.join(node_id)
        self._attach(node_id)

    def remove_node(self, node_id: int) -> None:
        """Graceful departure; state is handed to the successor."""
        self._overlay.leave(node_id)
        self._detach(node_id)

    def crash_node(self, node_id: int) -> None:
        """Abrupt failure; replicas are promoted at the new owner.

        The heir (the node inheriting the crashed node's keys — the
        ring successor for Chord/Pastry, the absorbing zone owner for
        CAN) adopts the replicated subscriptions after
        ``config.failure_detection_delay`` (a stand-in for failure
        detection + stabilization).
        """
        new_owner = self._overlay.heir_of(node_id)
        self._overlay.crash(node_id)
        self._detach(node_id)
        if self._config.replication_factor > 0:
            self._sim.schedule(
                self._config.failure_detection_delay,
                self._promote_replicas,
                new_owner,
                node_id,
            )

    def _promote_replicas(self, owner: int, crashed: int) -> None:
        node = self._nodes.get(owner)
        if node is None or not self._overlay.is_alive(owner):
            return
        for entry in node.promote_replicas(crashed):
            self.replicate_entry(owner, entry)

    # -- application API ------------------------------------------------------

    def set_notify_handler(self, node_id: int, handler: NotifyHandler) -> None:
        """Register the notification upcall for one subscriber node."""
        self._notify_handlers[node_id] = handler

    def set_global_notify_handler(self, handler: NotifyHandler) -> None:
        """Register a catch-all notification upcall (tests, harnesses)."""
        self._global_notify = handler

    def subscribe(
        self,
        node_id: int,
        subscription: Subscription,
        ttl: float | None = None,
    ) -> int:
        """Install σ at its rendezvous keys SK(σ).

        Args:
            node_id: The subscribing overlay node.
            subscription: The subscription.
            ttl: Expiration override; defaults to ``config.default_ttl``.

        Returns:
            The request id grouping this operation's messages.
        """
        groups = self._mapping.subscription_key_groups(subscription)
        keys = flat_keys(groups)
        payload = SubscribePayload(
            subscription=subscription,
            subscriber=node_id,
            ttl=self._config.default_ttl if ttl is None else ttl,
            groups=groups,
        )
        message = self._open(MessageKind.SUBSCRIPTION, payload, node_id)
        now = self._sim.now
        for fn in self.tap.subscribe:
            fn(message, now)
        self._send_to_keys(node_id, keys, message)
        return message.request_id

    def unsubscribe(self, node_id: int, subscription: Subscription) -> int:
        """Remove σ from its rendezvous keys."""
        keys = self._mapping.subscription_keys(subscription)
        payload = UnsubscribePayload(
            subscription_id=subscription.subscription_id, subscriber=node_id
        )
        message = self._open(MessageKind.UNSUBSCRIPTION, payload, node_id)
        now = self._sim.now
        for fn in self.tap.unsubscribe:
            fn(message, now)
        self._send_to_keys(node_id, keys, message)
        return message.request_id

    def publish(self, node_id: int, event: Event) -> int:
        """Send an event to its rendezvous keys EK(e)."""
        keys = self._mapping.event_keys(event)
        now = self._sim.now
        payload = PublishPayload(event=event, publisher=node_id, published_at=now)
        message = self._open(MessageKind.PUBLICATION, payload, node_id)
        for fn in self.tap.publish:
            fn(message, keys, now)
        self._send_to_keys(node_id, keys, message)
        return message.request_id

    # -- propagation -------------------------------------------------------------

    def _open(
        self, kind: MessageKind, payload: object, origin: int, parent_span: int = 0
    ) -> OverlayMessage:
        """Open one logical request: a fresh id, its envelope, its event.

        Every request of this layer starts here.  The ``request`` event
        is where the recorder begins the request's trace and a tracer
        roots its span — under ``parent_span``, which rides in on
        ``message.trace``.
        """
        message = OverlayMessage(
            kind=kind,
            payload=payload,
            request_id=next_request_id(),
            origin=origin,
            trace=parent_span,
        )
        now = self._sim.now
        for fn in self.tap.request:
            fn(message, now)
        return message

    def _send_to_keys(
        self, node_id: int, keys: frozenset[int], message: OverlayMessage
    ) -> None:
        """Propagate one request to its keys.

        Callers fire the request's own event (``subscribe`` /
        ``unsubscribe`` / ``publish``) *before* calling this: a key this
        node covers itself is delivered (and may notify) synchronously
        inside the send, and an oracle must already hold the request
        when that arrival reaches it.
        """
        routing = self._config.routing
        if len(keys) == 1 or routing is RoutingMode.UNICAST:
            # Single-key requests degenerate to plain unicast in every
            # mode; multi-key unicast is the aggressive baseline.
            for key in keys:
                self._overlay.send(node_id, key, message)
        elif routing is RoutingMode.MCAST:
            self._overlay.mcast(node_id, keys, message)
        else:
            self._overlay.sequential_cast(node_id, keys, message)

    def send_notification(
        self,
        source_id: int,
        subscriber: int,
        notifications: tuple[Notification, ...],
        parent_span: int = 0,
    ) -> None:
        """Unicast a notification batch from a rendezvous to a subscriber.

        ``parent_span`` lets the rendezvous chain this notification's
        root span to the publication hop that produced the match, so a
        trace walks publish → match → notify end to end.
        """
        payload = NotifyPayload(subscriber=subscriber, notifications=notifications)
        self._overlay.send(
            source_id,
            subscriber,
            self._open(MessageKind.NOTIFICATION, payload, source_id, parent_span),
        )

    def send_collect(
        self, source_id: int, side: NeighborSide, payload: CollectPayload
    ) -> None:
        """One-hop COLLECT toward a subscription's agent (Section 4.3.2)."""
        self._overlay.send_to_neighbor(
            source_id, side, self._open(MessageKind.COLLECT, payload, source_id)
        )

    # -- replication (Section 4.1) ---------------------------------------------

    def replicate_entry(self, owner: int, entry: StoredSubscription) -> None:
        """Push one stored entry to the owner's successor chain."""
        if self._config.replication_factor < 1:
            return
        payload = ReplicaPayload(
            owner=owner,
            entries=(entry,),
            remaining=self._config.replication_factor,
        )
        self.forward_replica(owner, payload)

    def replicate_removal(self, owner: int, subscription_id: int) -> None:
        """Propagate an unsubscription along the owner's replica chain."""
        if self._config.replication_factor < 1:
            return
        payload = ReplicaRemovePayload(
            owner=owner,
            subscription_id=subscription_id,
            remaining=self._config.replication_factor,
        )
        self.forward_replica(owner, payload)

    def forward_replica(
        self, source_id: int, payload: ReplicaPayload | ReplicaRemovePayload
    ) -> None:
        """One hop of the replica chain, toward the node's heir.

        Replicas live where a crash would move the keys: the ring
        successor on Chord/Pastry, the absorbing zone owner on CAN.
        """
        message = self._open(MessageKind.CONTROL, payload, source_id)
        heir = self._overlay.heir_of(source_id)
        side = (
            NeighborSide.SUCCESSOR
            if heir == self._overlay.neighbor_of(source_id, NeighborSide.SUCCESSOR)
            else NeighborSide.PREDECESSOR
        )
        self._overlay.send_to_neighbor(source_id, side, message)

    # -- overlay upcalls -----------------------------------------------------------

    def _on_deliver(self, node_id: int, message: OverlayMessage) -> None:
        node = self._nodes.get(node_id)
        if node is None:
            # A message can reach a node the harness never attached
            # (e.g., raced an in-flight detach); attach lazily if alive.
            if not self._overlay.is_alive(node_id):
                return
            self._attach(node_id)
            node = self._nodes[node_id]
        node.on_deliver(message)

    def _on_state_transfer(
        self, from_node: int, to_node: int, key_range: tuple[int, int]
    ) -> None:
        source = self._nodes.get(from_node)
        if source is None:
            return
        entries = source.extract_entries_for_range(key_range)
        if not entries:
            return
        message = self._open(
            MessageKind.CONTROL, StateTransferPayload(entries=tuple(entries)), from_node
        )
        self._overlay.transmit(from_node, to_node, message.forwarded_copy(from_node))

    def deliver_notifications(self, node_id: int, payload: NotifyPayload) -> None:
        """Terminal delivery of a notification batch at the subscriber."""
        if payload.subscriber != node_id:
            # Routed on a departed subscriber's id, the batch reached the
            # node that took the id over; it is not that node's to deliver.
            return
        # Announced before dedupe so duplicate deliveries stay observable.
        now = self._sim.now
        for fn in self.tap.notify:
            fn(node_id, payload.notifications, now)
        node = self._nodes.get(node_id)
        if node is None:
            return
        fresh = node.fresh_notifications(payload.notifications)
        if not fresh:
            return
        handler = self._notify_handlers.get(node_id)
        if handler is not None:
            handler(node_id, fresh)
        if self._global_notify is not None:
            self._global_notify(node_id, fresh)

    # -- metrics helpers ---------------------------------------------------------

    def subscriptions_per_node(self) -> dict[int, int]:
        """Live (non-expired) stored subscriptions per node (Figs. 6, 8)."""
        now = self.now
        return {
            node_id: node.store.live_count(now)
            for node_id, node in self._nodes.items()
            if self._overlay.is_alive(node_id)
        }

    def snapshot_storage(self) -> None:
        """Record a storage snapshot into the metrics recorder."""
        self.recorder.storage.snapshot(self.now, self.subscriptions_per_node())
