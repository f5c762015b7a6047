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
    StoredEntrySnapshot,
    SubscribePayload,
    UnsubscribePayload,
)
from repro.core.rendezvous import StoredSubscription, SubscriptionStore
from repro.overlay.api import NeighborSide, OverlayMessage

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
    _replicas: dict[int, dict[int, StoredEntrySnapshot]] | None = None

    def __init__(self, node_id: int, system: "PubSubSystem") -> None:
        self.id = node_id
        self._system = system
        self.store = SubscriptionStore(
            system.mapping.space,
            matcher=system.config.matcher,
            covering=system.config.covering,
        )
        # Only a buffering system flushes, collects or buffers a match.
        self.buffer = NotificationBuffer() if system.config.buffering else None

    @property
    def replicas(self) -> dict[int, dict[int, StoredEntrySnapshot]]:
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

    def covered_targets(self, message: OverlayMessage) -> set[int]:
        """The rendezvous keys (of this message) that this node covers."""
        if message.target_keys is not None:
            covers = self._system._overlay.covers
            me = self.id
            return {k for k in message.target_keys if covers(me, k)}
        assert message.key is not None
        return {message.key}

    def _handle_subscribe(
        self, payload: SubscribePayload, message: OverlayMessage
    ) -> None:
        keys_here = self.covered_targets(message)
        now = self._system._sim.now
        entry = self.store.put(payload, keys_here, now)
        for fn in self._system.tap.store:
            fn(self, keys_here)
        self._system.replicate_entry(self.id, entry.snapshot())

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
        config = self._system.config
        for entry in matched:
            notification = Notification(
                event=payload.event,
                subscription_id=entry.subscription.subscription_id,
                matched_at=self.id,
                published_at=payload.published_at,
            )
            if not config.buffering:
                # Section 4.3.2 baseline: one short message per match.
                # The publication hop that reached this rendezvous
                # (message.trace) becomes the notification root's
                # parent, chaining publish -> match -> notify.
                self._system.send_notification(
                    self.id, entry.subscriber, (notification,),
                    parent_span=message.trace,
                )
                continue
            agent = self._agent_for(entry) if config.collecting else None
            self.buffer.add(
                entry.subscriber,
                entry.subscription.subscription_id,
                agent,
                [notification],
            )

    def _agent_for(self, entry: StoredSubscription) -> int:
        anchor = min(entry.keys_here) if entry.keys_here else self.id
        return agent_key_for(entry.payload.groups, anchor)

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
        for snapshot in payload.entries:
            shelf[snapshot.payload.subscription.subscription_id] = snapshot
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

    def promote_replicas(self, crashed_owner: int) -> list[StoredEntrySnapshot]:
        """Adopt the replicas held for a crashed ring neighbor.

        The crashed node's key interval is now covered by this node, so
        its replicated subscriptions become live entries here.  Returns
        the promoted snapshots so the system can re-replicate them.
        """
        shelf = (self._replicas or {}).pop(crashed_owner, {})
        now = self._system._sim.now
        promoted = []
        for snapshot in shelf.values():
            if snapshot.expire_at is not None and now >= snapshot.expire_at:
                continue
            self.store.restore(snapshot)
            promoted.append(snapshot)
        return promoted

    def _handle_state_transfer(
        self, payload: StateTransferPayload, message: OverlayMessage
    ) -> None:
        for snapshot in payload.entries:
            self.store.restore(snapshot)

    def extract_entries_for_range(
        self, key_range: tuple[int, int]
    ) -> list[StoredEntrySnapshot]:
        """Detach the stored keys falling in ``(left, right]`` (churn).

        Entries whose every rendezvous key moved are dropped locally;
        entries that also cover keys outside the range stay (minus the
        moved keys).  Returns snapshots carrying exactly the moved keys.
        """
        moved: list[StoredEntrySnapshot] = []
        if not len(self.store):  # churn probes every node; most are empty
            return moved
        keyspace = self._system.overlay.keyspace
        left, right = key_range
        # Inline ``in_open_closed``: this scan visits every stored entry
        # on every join/leave, so the per-key cost must stay at two int
        # ops.  key in (left, right] <=> 0 < (key-left) <= (right-left),
        # both mod the ring size; left == right means the whole ring.
        size = keyspace.size
        whole = left == right
        span = (right - left) % size
        for entry in self.store.entries():
            if whole:
                in_range = set(entry.keys_here)
            else:
                in_range = {
                    k for k in entry.keys_here if 0 < (k - left) % size <= span
                }
            if not in_range:
                continue
            moved.append(
                StoredEntrySnapshot(
                    payload=entry.payload,
                    keys_here=tuple(sorted(in_range)),
                    expire_at=entry.expire_at,
                )
            )
            self.store.remove_keys(
                entry.subscription.subscription_id, in_range
            )
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
