"""Application-side client facade.

:class:`PubSubClient` wraps one node's view of the system with the
``sub()`` / ``pub()`` / ``notify()`` surface of Fig. 2, and adds the
disjunction support the data model promises: Section 3.2 notes that
"disjunctive constraints can be treated as separate subscriptions" —
the client performs that splitting, subscribes each disjunct, and
de-duplicates notifications so the application sees each matching event
once per *disjunction*, not once per disjunct.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from typing import Callable, Iterable

from repro.core.events import Event
from repro.core.payloads import Notification
from repro.core.subscriptions import Subscription
from repro.core.system import PubSubSystem
from repro.errors import DataModelError
from repro.sim.process import PeriodicTimer

_disjunction_ids = itertools.count(1)

#: Remembered (event, disjunction) pairs for de-duplication.
DEDUP_LIMIT = 8192


@dataclasses.dataclass(frozen=True)
class Disjunction:
    """An OR of conjunctive subscriptions (one logical interest).

    Attributes:
        disjuncts: The member subscriptions; the disjunction matches an
            event iff any member does.
        disjunction_id: Identity used for notification de-duplication
            and unsubscription.
    """

    disjuncts: tuple[Subscription, ...]
    disjunction_id: int = dataclasses.field(
        default_factory=lambda: next(_disjunction_ids)
    )

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise DataModelError("a disjunction needs at least one disjunct")
        spaces = {id(s.space) for s in self.disjuncts}
        if len(spaces) > 1 and len({s.space for s in self.disjuncts}) > 1:
            raise DataModelError("disjuncts must share one event space")

    def matches(self, event: Event) -> bool:
        """True iff any disjunct matches."""
        return any(s.matches(event) for s in self.disjuncts)


MatchHandler = Callable[[Event, "Disjunction | Subscription"], None]


class PubSubClient:
    """One application endpoint bound to an overlay node.

    Example:
        client = PubSubClient(system, node_id=42)
        client.on_match(lambda event, interest: print(event))
        client.subscribe(sigma)
        client.subscribe_any([sigma_a, sigma_b])   # disjunction
        client.publish(event)
    """

    def __init__(self, system: PubSubSystem, node_id: int) -> None:
        self._system = system
        self._node_id = node_id
        self._handlers: list[MatchHandler] = []
        self._subscriptions: dict[int, Subscription] = {}
        self._disjunctions: dict[int, Disjunction] = {}
        self._disjunct_owner: dict[int, int] = {}  # subscription id -> disjunction id
        self._seen: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._renew_timers: dict[int, PeriodicTimer] = {}
        system.set_notify_handler(node_id, self._on_notifications)

    @property
    def active_subscriptions(self) -> list[Subscription]:
        """Plain (non-disjunct) subscriptions currently installed."""
        return list(self._subscriptions.values())

    @property
    def active_disjunctions(self) -> list[Disjunction]:
        """Disjunctions currently installed."""
        return list(self._disjunctions.values())

    def on_match(self, handler: MatchHandler) -> None:
        """Register an application callback for matching events."""
        self._handlers.append(handler)

    # -- subscribing -------------------------------------------------------

    def subscribe(
        self,
        subscription: Subscription,
        ttl: float | None = None,
        auto_renew: bool = False,
    ) -> None:
        """Install one conjunctive subscription.

        Args:
            subscription: The subscription.
            ttl: Rendezvous expiration; None falls back to the system
                default.
            auto_renew: Re-send the subscription at 80% of its TTL so it
                never expires while this client holds it — the lease
                pattern real deployments use with expiration-based
                garbage collection (the paper simulates unsubscriptions
                purely via expiration; leases are the complement).
                Requires a finite effective TTL.
        """
        self._subscriptions[subscription.subscription_id] = subscription
        self._system.subscribe(self._node_id, subscription, ttl=ttl)
        if auto_renew:
            effective = ttl if ttl is not None else self._system.config.default_ttl
            if effective is None:
                raise DataModelError("auto_renew requires a finite TTL")
            timer = PeriodicTimer(
                self._system.sim,
                0.8 * effective,
                lambda: self._renew(subscription, ttl),
            )
            timer.start()
            self._renew_timers[subscription.subscription_id] = timer

    def _renew(self, subscription: Subscription, ttl: float | None) -> None:
        if subscription.subscription_id not in self._subscriptions:
            return
        self._system.subscribe(self._node_id, subscription, ttl=ttl)

    def subscribe_any(
        self, disjuncts: Iterable[Subscription], ttl: float | None = None
    ) -> Disjunction:
        """Install a disjunction: each disjunct becomes a subscription.

        Returns the disjunction handle (needed to unsubscribe it).
        """
        disjunction = Disjunction(disjuncts=tuple(disjuncts))
        self._disjunctions[disjunction.disjunction_id] = disjunction
        for subscription in disjunction.disjuncts:
            self._disjunct_owner[subscription.subscription_id] = (
                disjunction.disjunction_id
            )
            self._system.subscribe(self._node_id, subscription, ttl=ttl)
        return disjunction

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a plain subscription (cancelling any renewal lease)."""
        self._subscriptions.pop(subscription.subscription_id, None)
        timer = self._renew_timers.pop(subscription.subscription_id, None)
        if timer is not None:
            timer.stop()
        self._system.unsubscribe(self._node_id, subscription)

    def unsubscribe_any(self, disjunction: Disjunction) -> None:
        """Remove every disjunct of a disjunction."""
        self._disjunctions.pop(disjunction.disjunction_id, None)
        for subscription in disjunction.disjuncts:
            self._disjunct_owner.pop(subscription.subscription_id, None)
            self._system.unsubscribe(self._node_id, subscription)

    # -- publishing -----------------------------------------------------------

    def publish(self, event: Event) -> None:
        """Publish an event from this node."""
        self._system.publish(self._node_id, event)

    # -- notification plumbing ---------------------------------------------------

    def _on_notifications(
        self, node_id: int, notifications: list[Notification]
    ) -> None:
        for notification in notifications:
            sid = notification.subscription_id
            disjunction_id = self._disjunct_owner.get(sid)
            if disjunction_id is not None:
                interest: Disjunction | Subscription | None = (
                    self._disjunctions.get(disjunction_id)
                )
                dedup_key = (notification.event.event_id, disjunction_id)
            else:
                interest = self._subscriptions.get(sid)
                dedup_key = (notification.event.event_id, -sid)
            if interest is None:
                continue  # already unsubscribed locally
            if dedup_key in self._seen:
                continue
            self._seen[dedup_key] = None
            while len(self._seen) > DEDUP_LIMIT:
                self._seen.popitem(last=False)
            for handler in self._handlers:
                handler(notification.event, interest)
