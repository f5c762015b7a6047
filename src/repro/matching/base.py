"""Common interface of the matching engines."""

from __future__ import annotations

import abc
import operator

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError

_by_id = operator.attrgetter("subscription_id")


class Matcher(abc.ABC):
    """A mutable collection of subscriptions with event matching."""

    #: Optional work-attribution handle (a
    #: :class:`~repro.telemetry.load.MatchWork`): when attached, every
    #: ``match()`` adds its candidate-set size, exact-verification
    #: count and match count.  Class-level None keeps the disabled
    #: path at one identity check per match.
    work = None

    @abc.abstractmethod
    def add(self, subscription: Subscription) -> None:
        """Insert a subscription (no-op if the id is already present)."""

    @abc.abstractmethod
    def remove(self, subscription_id: int) -> bool:
        """Remove by id; returns True if it was present."""

    @abc.abstractmethod
    def match(self, event: Event) -> list[Subscription]:
        """All stored subscriptions the event satisfies, in
        subscription-id order."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored subscriptions."""

    @abc.abstractmethod
    def __contains__(self, subscription_id: int) -> bool:
        """Membership test by subscription id."""

    def matches_any(self, event: Event) -> bool:
        """True if at least one stored subscription matches the event."""
        return bool(self.match(event))


class IndexedMatcher(Matcher):
    """What the index engines share: storage by id over one event
    space, and exact verification of a candidate set.

    A subclass keeps its own index from events to candidate ids (with
    ``_catch_all`` holding the subscriptions that constrain nothing)
    and hands each event's candidates to :meth:`_verify`.
    """

    def __init__(self, space: EventSpace) -> None:
        self._space = space
        self._subscriptions: dict[int, Subscription] = {}
        self._catch_all: set[int] = set()

    def _store(self, subscription: Subscription) -> bool:
        """Record a subscription by id; False if it is already stored."""
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            return False
        space = subscription.space
        if space is not self._space and space != self._space:
            raise DataModelError("subscription space differs from index space")
        self._subscriptions[sid] = subscription
        return True

    def _verify(self, candidates: set[int], event: Event) -> list[Subscription]:
        """The candidates the event satisfies, in subscription-id order.

        The predicate kernel: each candidate's compiled ``rows`` are
        tested in this loop, with the space check that
        :meth:`Subscription.matches` makes per call done once (every
        stored subscription shares the index space).
        """
        matched: list[Subscription] = []
        if candidates:
            space = event.space
            if space is not self._space and space != self._space:
                raise DataModelError("event and subscription spaces differ")
            values = event.values
            subscriptions = self._subscriptions
            for sid in candidates:
                subscription = subscriptions[sid]
                for attribute, low, high in subscription.rows:
                    if not low <= values[attribute] <= high:
                        break
                else:
                    matched.append(subscription)
            matched.sort(key=_by_id)
        work = self.work
        if work is not None:
            work.candidates += len(candidates)
            work.verified += len(candidates)
            work.matched += len(matched)
        return matched

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subscriptions
