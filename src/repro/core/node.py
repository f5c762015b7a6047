"""Per-node CB-pub/sub logic (the middle layer of Fig. 2).

A :class:`PubSubNode` lives at every overlay node.  It stores the
subscriptions whose rendezvous keys the node covers, matches incoming
publications against them, emits notifications (immediately, or through
the buffering/collecting machinery of Section 4.3.2), holds replicas of
its ring predecessors' state, and answers the churn state-transfer
callbacks of Section 4.1.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.buffering import NotificationBuffer, agent_key_for
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
from repro.core.rendezvous import SubscriptionStore
from repro.overlay.api import NeighborSide, OverlayMessage
from repro.overlay.ids import KeyRuns

if TYPE_CHECKING:
    from repro.core.system import PubSubSystem

#: How many recently seen publication request ids each node remembers
#: (dedup for the aggressive per-key unicast baseline, whose redundant
#: deliveries are a network inefficiency but must not double-match).
SEEN_PUBLICATIONS_LIMIT = 4096


class PubSubNode:
    """The CB-pub/sub layer instance at one overlay node."""

    # Most nodes only route: each is made at the first entry it holds.
    _seen_publications: OrderedDict[int, None] | None = None
    _seen_notifications: OrderedDict[tuple[int, int], None] | None = None
    _replicas: dict[int, dict[int, StoredSubscription]] | None = None

    def __init__(self, node_id: int, system: "PubSubSystem") -> None:
        self.id = node_id
        self._system = system
        self.store = SubscriptionStore(
            system.mapping.space,
            matcher=system.config.matcher,
            covering=system.config.covering,
        )
        # Only a buffering system flushes, collects or buffers a match.
        buffered = system.config.notification != "direct"
        self.buffer = NotificationBuffer() if buffered else None

    @property
    def replicas(self) -> dict[int, dict[int, StoredSubscription]]:
        """Replica shelves by the owner that pushed them (made on read)."""
        if self._replicas is None:
            self._replicas = {}
        return self._replicas

    # -- delivery dispatch -------------------------------------------------

    def on_deliver(self, message: OverlayMessage) -> None:
        """Overlay upcall: dispatch on the application payload's class.

        One dict read and one handler call (see ``_HANDLERS`` below).
        """
        payload = message.payload
        try:
            handler = _HANDLERS[payload.__class__]
        except KeyError:
            raise TypeError(
                f"unexpected payload type {type(payload).__name__}"
            ) from None
        handler(self, payload, message)

    # -- subscriptions -------------------------------------------------------

    def covered_targets(self, message: OverlayMessage) -> KeyRuns:
        """The rendezvous keys (of this message) that this node covers:
        its targets' runs within its span, or the one key it was sent."""
        if message.target_keys is not None:
            overlay = self._system._overlay
            start, length = overlay.node(self.id).owned_span()
            return message.target_keys.split(start, length, overlay._key_limit)[0]
        assert message.key is not None
        return KeyRuns((message.key, 1))

    def held_keys(self, entry: StoredSubscription) -> KeyRuns:
        """The keys of SK(σ) in this node's span: why ``entry`` is here."""
        overlay = self._system._overlay
        start, length = overlay.node(self.id).owned_span()
        keys = KeyRuns.union(entry.payload.groups)
        return keys.split(start, length, overlay._key_limit)[0]

    def _handle_subscribe(
        self, payload: SubscribePayload, message: OverlayMessage
    ) -> None:
        entry = self.store.put(payload, None, self._system._sim.now)
        for fn in self._system.tap.store:
            fn(self, message)
        self._system.replicate_entry(self.id, entry)

    def _handle_unsubscribe(
        self, payload: UnsubscribePayload, message: OverlayMessage
    ) -> None:
        if self.store.remove(payload.subscription_id):
            self._system.replicate_removal(self.id, payload.subscription_id)

    # -- publications ---------------------------------------------------------

    def _handle_publication(
        self, payload: PublishPayload, message: OverlayMessage
    ) -> None:
        seen = self._seen_publications
        if seen is None:
            seen = self._seen_publications = OrderedDict()
        elif message.request_id in seen:
            return
        seen[message.request_id] = None
        while len(seen) > SEEN_PUBLICATIONS_LIMIT:
            seen.popitem(last=False)

        now = self._system._sim.now
        matched = self.store.match(payload.event, now)
        for fn in self._system.tap.match:
            fn(self, message, matched)
        if not matched:
            return
        collected = self._system.config.notification == "collected"
        for entry in matched:
            notification = Notification(
                event=payload.event,
                subscription_id=entry.subscription.subscription_id,
                matched_at=self.id,
                published_at=payload.published_at,
            )
            if self.buffer is None:
                # Section 4.3.2 baseline: one short message per match.
                # The publication hop that reached this rendezvous
                # (message.trace) becomes the notification root's
                # parent, chaining publish -> match -> notify.
                self._system.send_notification(
                    self.id, entry.subscriber, (notification,),
                    parent_span=message.trace,
                )
                continue
            agent = self._agent_for(entry) if collected else None
            self.buffer.add(
                entry.subscriber,
                entry.subscription.subscription_id,
                agent,
                [notification],
            )

    def _agent_for(self, entry: StoredSubscription) -> int:
        held = self.held_keys(entry)  # its first start is its least key
        return agent_key_for(entry.payload.groups, held[0] if held else self.id)

    # -- buffering / collecting ----------------------------------------------

    def flush(self) -> None:
        """Periodic buffer flush (Section 4.3.2).

        Batches whose agent key we cover (or that have no agent) are
        merged into one notification message per subscriber ("all the
        matches ... sent in a single message"); the rest advance one
        ring hop toward their agent as COLLECT messages.
        """
        overlay = self._system.overlay
        keyspace = overlay.keyspace
        direct: dict[int, list[Notification]] = {}
        for batch in self.buffer.drain():
            at_agent = batch.agent_key is None or overlay.covers(
                self.id, batch.agent_key
            )
            if at_agent:
                direct.setdefault(batch.subscriber, []).extend(batch.notifications)
                continue
            assert batch.agent_key is not None
            clockwise = keyspace.distance(self.id, batch.agent_key)
            counter = keyspace.distance(batch.agent_key, self.id)
            side = (
                NeighborSide.SUCCESSOR
                if clockwise <= counter
                else NeighborSide.PREDECESSOR
            )
            self._system.send_collect(
                self.id,
                side,
                CollectPayload(
                    subscriber=batch.subscriber,
                    subscription_id=batch.subscription_id,
                    agent_key=batch.agent_key,
                    notifications=tuple(batch.notifications),
                ),
            )
        for subscriber, notifications in direct.items():
            self._system.send_notification(self.id, subscriber, tuple(notifications))

    def _handle_notify(self, payload: NotifyPayload, message: OverlayMessage) -> None:
        self._system.deliver_notifications(self.id, payload)

    def _handle_collect(self, payload: CollectPayload, message: OverlayMessage) -> None:
        self.buffer.add(
            payload.subscriber,
            payload.subscription_id,
            payload.agent_key,
            payload.notifications,
        )

    def fresh_notifications(
        self, notifications: tuple[Notification, ...]
    ) -> list[Notification]:
        """Filter out (event, subscription) pairs already delivered here.

        Subscriber-side deduplication: under Selective-Attribute an
        event reaches d rendezvous nodes and a subscription stored at
        two of them would be notified twice; the duplicate messages are
        a real network cost (counted by the metrics) but the
        application should see each match once.
        """
        seen = self._seen_notifications
        if seen is None:
            seen = self._seen_notifications = OrderedDict()
        fresh = []
        for notification in notifications:
            dedup_key = (notification.event.event_id, notification.subscription_id)
            if dedup_key in seen:
                continue
            seen[dedup_key] = None
            fresh.append(notification)
        while len(seen) > SEEN_PUBLICATIONS_LIMIT:
            seen.popitem(last=False)
        return fresh

    # -- replication and churn (Section 4.1) -----------------------------------

    def _handle_replica(self, payload: ReplicaPayload, message: OverlayMessage) -> None:
        replicas = self._replicas
        if replicas is None:
            replicas = self._replicas = {}
        shelf = replicas.setdefault(payload.owner, {})
        for entry in payload.entries:
            shelf[entry.payload.subscription.subscription_id] = entry
        if payload.remaining > 1:
            self._system.forward_replica(
                self.id,
                ReplicaPayload(
                    owner=payload.owner,
                    entries=payload.entries,
                    remaining=payload.remaining - 1,
                ),
            )

    def _handle_replica_remove(
        self, payload: ReplicaRemovePayload, message: OverlayMessage
    ) -> None:
        shelf = (self._replicas or {}).get(payload.owner)
        if shelf is not None:
            shelf.pop(payload.subscription_id, None)
        if payload.remaining > 1:
            self._system.forward_replica(
                self.id,
                ReplicaRemovePayload(
                    owner=payload.owner,
                    subscription_id=payload.subscription_id,
                    remaining=payload.remaining - 1,
                ),
            )

    def promote_replicas(self, crashed_owner: int) -> list[StoredSubscription]:
        """Adopt the replicas held for a crashed ring neighbor.

        The crashed node's key interval is now covered by this node, so
        its replicated subscriptions become live entries here.  Returns
        the promoted entries so the system can re-replicate them.
        """
        shelf = (self._replicas or {}).pop(crashed_owner, {})
        now = self._system._sim.now
        promoted = []
        for entry in shelf.values():
            if entry.expire_at is not None and now >= entry.expire_at:
                continue
            self.store.restore(entry)
            promoted.append(entry)
        return promoted

    def _handle_state_transfer(
        self, payload: StateTransferPayload, message: OverlayMessage
    ) -> None:
        for entry in payload.entries:
            self.store.restore(entry)

    def extract_entries_for_range(
        self, key_range: tuple[int, int]
    ) -> list[StoredSubscription]:
        """The entries with a key of SK(σ) in ``(left, right]`` (churn).

        Each goes to the range's new owner, and stays here too while a
        key of SK(σ) outside the range is still in this node's span
        (read once: on a join the overlay has already moved the range
        away; on a leave the span is the range itself).
        """
        store = self.store
        moved: list[StoredSubscription] = []
        if not len(store):  # churn probes every node; most are empty
            return moved
        overlay = self._system._overlay
        start, length = overlay.node(self.id).owned_span()
        size = overlay.keyspace.size
        left, right = key_range
        # (left, right] as a span: the width keys from first; left ==
        # right means the whole ring.
        first, width = left + 1, (right - left - 1) % size + 1
        whole = first % size == start and width == length  # a leave
        for entry in store.entries():
            groups = entry.payload.groups
            for group in groups:
                if group.meets(first, width, size):
                    break
            else:
                continue  # no key of SK(σ) in the range
            moved.append(entry)
            if whole or not KeyRuns.union(groups).split(first, width, size)[1].meets(
                start, length, size
            ):
                store.remove(entry.payload.subscription.subscription_id)
        return moved


#: Payload class -> its handler, called as ``handler(node, payload,
#: message)``.  Payloads are final (frozen, slotted) dataclasses, so the
#: exact class is the whole dispatch.
_HANDLERS = {
    SubscribePayload: PubSubNode._handle_subscribe,
    UnsubscribePayload: PubSubNode._handle_unsubscribe,
    PublishPayload: PubSubNode._handle_publication,
    NotifyPayload: PubSubNode._handle_notify,
    CollectPayload: PubSubNode._handle_collect,
    ReplicaPayload: PubSubNode._handle_replica,
    ReplicaRemovePayload: PubSubNode._handle_replica_remove,
    StateTransferPayload: PubSubNode._handle_state_transfer,
}
