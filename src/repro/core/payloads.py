"""Application payloads carried inside overlay messages.

The CB-pub/sub layer exchanges five payload types through the overlay:
subscription installs/removals toward SK(σ), publications toward EK(e),
notifications back to subscribers, neighbor-to-neighbor COLLECT
aggregation (Section 4.3.2), and replication/state-transfer control
traffic (Section 4.1), which ships stored records as they are.

All payload classes are frozen *slotted* dataclasses: at sharded-run
populations (10^5 nodes, 10^6 publications) the per-instance ``__dict__``
of the notification/publication hot classes dominated heap growth.
"""

from __future__ import annotations

import dataclasses

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.overlay.ids import KeyRuns


@dataclasses.dataclass(frozen=True, slots=True)
class SubscribePayload:
    """Install σ at its rendezvous keys.

    Attributes:
        subscription: The subscription being installed.
        subscriber: Overlay id of the subscribing node (stored with σ so
            rendezvous nodes can route notifications back, Section 4.1).
        ttl: Seconds until automatic expiration at the rendezvous, or
            None for no expiry (the paper's Fig. 6 sweeps this).
        groups: SK(σ) in the mapping's natural key groups, each one
            :class:`~repro.overlay.ids.KeyRuns`; rendezvous nodes derive
            the collecting agent (middle of their group) from this
            (Section 4.3.2).
    """

    subscription: Subscription
    subscriber: int
    ttl: float | None
    groups: tuple[KeyRuns, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class UnsubscribePayload:
    """Remove a subscription from its rendezvous keys."""

    subscription_id: int
    subscriber: int


@dataclasses.dataclass(frozen=True, slots=True)
class PublishPayload:
    """An event on its way to the rendezvous keys EK(e).

    Attributes:
        event: The published event.
        publisher: Overlay id of the publishing node.
        published_at: Simulated publish time; carried through matching
            so subscriber-side delivery delay can be measured (the
            latency cost of buffering, Section 4.3.2).
    """

    event: Event
    publisher: int
    published_at: float = 0.0


@dataclasses.dataclass(frozen=True, slots=True)
class Notification:
    """One matched (event, subscription) pair."""

    event: Event
    subscription_id: int
    matched_at: int
    """Overlay id of the rendezvous node that found the match."""

    published_at: float = 0.0
    """When the matched event was published (for delay accounting)."""


@dataclasses.dataclass(frozen=True, slots=True)
class NotifyPayload:
    """A batch of notifications for one subscriber node.

    Without buffering the batch holds a single notification; buffering
    and collecting (Section 4.3.2) pack several matches per message.
    """

    subscriber: int
    notifications: tuple[Notification, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class CollectPayload:
    """Neighbor-hop aggregation toward a subscription's agent node.

    Every node in a subscription's rendezvous range periodically sends
    its detected matches one hop toward the middle of the range; the
    middle node (the *agent*) forwards the collected batch to the
    subscriber (Section 4.3.2).
    """

    subscriber: int
    subscription_id: int
    agent_key: int
    notifications: tuple[Notification, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class StoredSubscription:
    """One subscription resident at a rendezvous node.

    Replication and state transfer ship the record as it is.  The keys
    that hold it at a node are not part of it: they are SK(σ) (the
    payload's ``groups``) within the node's span, read when needed
    (:meth:`~repro.core.node.PubSubNode.held_keys`), so they follow
    ownership through every join, leave and crash.

    Attributes:
        payload: The install payload (subscription, subscriber, groups).
        expire_at: Absolute simulated expiry time, or None.
    """

    payload: SubscribePayload
    expire_at: float | None

    @property
    def subscription(self) -> Subscription:
        """The stored subscription."""
        return self.payload.subscription

    @property
    def subscriber(self) -> int:
        """Overlay id of the subscribing node."""
        return self.payload.subscriber

    def expired(self, now: float) -> bool:
        """True once the expiry time has passed."""
        return self.expire_at is not None and now >= self.expire_at


@dataclasses.dataclass(frozen=True, slots=True)
class StateTransferPayload:
    """Bulk move of stored subscriptions between ring neighbors."""

    entries: tuple[StoredSubscription, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class ReplicaPayload:
    """Replica push: back up ``owner``'s entries at ring successors.

    Replication walks the successor chain: each receiver stores the
    entries under ``owner`` and, while ``remaining > 1``, forwards one
    more hop with ``remaining - 1`` (Section 4.1: state replicated on a
    small number of neighbors).
    """

    owner: int
    entries: tuple[StoredSubscription, ...]
    remaining: int = 1


@dataclasses.dataclass(frozen=True, slots=True)
class ReplicaRemovePayload:
    """Propagate an unsubscription to the owner's replicas."""

    owner: int
    subscription_id: int
    remaining: int = 1
