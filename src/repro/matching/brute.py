"""Reference matching engine: test every stored subscription."""

from __future__ import annotations

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError
from repro.matching.base import Matcher, _by_id


class BruteForceMatcher(Matcher):
    """O(stored x d) matching; the oracle the index is tested against."""

    def __init__(self) -> None:
        self._subscriptions: dict[int, Subscription] = {}

    def add(self, subscription: Subscription) -> None:
        self._subscriptions.setdefault(subscription.subscription_id, subscription)

    def remove(self, subscription_id: int) -> bool:
        return self._subscriptions.pop(subscription_id, None) is not None

    def match(self, event: Event) -> list[Subscription]:
        space = event.space
        values = event.values
        matched = []
        for subscription in self._subscriptions.values():
            # No index space to check the event against once: brute
            # accepts any subscription, so each names its own space.
            if subscription.space is not space and subscription.space != space:
                raise DataModelError("event and subscription spaces differ")
            for attribute, low, high in subscription.rows:
                if not low <= values[attribute] <= high:
                    break
            else:
                matched.append(subscription)
        work = self.work
        if work is not None:
            # Every stored subscription is both candidate and verify.
            work.candidates += len(self._subscriptions)
            work.verified += len(self._subscriptions)
            work.matched += len(matched)
        matched.sort(key=_by_id)
        return matched

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subscriptions
