"""Bucket-grid matching index.

Strategy: pick one *anchor* attribute per subscription (its most
selective constraint), divide that attribute's domain into fixed-width
buckets, and register the subscription in every bucket its anchor range
overlaps.  Matching an event probes one bucket per attribute and
verifies candidates exactly.  Partial subscriptions with no constraints
at all live in a catch-all list.

With the paper's workload (ranges ≤ 3% of the domain) each subscription
lands in a handful of buckets and each probe examines a small candidate
set, making the matching-probability control of the workload generator
(which must test events against up to 25 000 live subscriptions)
affordable.
"""

from __future__ import annotations

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError
from repro.matching.base import IndexedMatcher


class GridIndexMatcher(IndexedMatcher):
    """Anchor-attribute bucket grid over one event space.

    Args:
        space: The event space all indexed subscriptions must share.
        buckets_per_attribute: Grid resolution; more buckets = smaller
            candidate sets but more registration work per subscription.
    """

    def __init__(self, space: EventSpace, buckets_per_attribute: int = 256) -> None:
        if buckets_per_attribute < 1:
            raise DataModelError("need at least one bucket per attribute")
        super().__init__(space)
        self._bucket_count = buckets_per_attribute
        self._widths = [
            max(1, -(-attribute.size // buckets_per_attribute))  # ceil division
            for attribute in space.attributes
        ]
        # _grid[attribute][bucket] -> {subscription_id}
        self._grid: list[dict[int, set[int]]] = [{} for _ in space.attributes]

    def _anchor_buckets(
        self, subscription: Subscription
    ) -> tuple[dict[int, set[int]], range]:
        """The anchor attribute's bucket table and the buckets its range spans."""
        anchor = subscription.anchor
        width = self._widths[anchor]
        return self._grid[anchor], range(
            subscription.lows[anchor] // width,
            subscription.highs[anchor] // width + 1,
        )

    def add(self, subscription: Subscription) -> None:
        if not self._store(subscription):
            return
        sid = subscription.subscription_id
        if not subscription.rows:
            self._catch_all.add(sid)
            return
        buckets, span = self._anchor_buckets(subscription)
        for bucket in span:
            buckets.setdefault(bucket, set()).add(sid)

    def remove(self, subscription_id: int) -> bool:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            return False
        if not subscription.rows:
            self._catch_all.discard(subscription_id)
            return True
        buckets, span = self._anchor_buckets(subscription)
        for bucket in span:
            members = buckets.get(bucket)
            if members is not None:
                members.discard(subscription_id)
                if not members:
                    del buckets[bucket]
        return True

    def match(self, event: Event) -> list[Subscription]:
        candidates: set[int] = set(self._catch_all)
        grid = self._grid
        widths = self._widths
        for attribute, value in enumerate(event.values):
            buckets = grid[attribute]
            if not buckets:
                # No subscription is anchored on this attribute; skip
                # the bucket arithmetic and the probe entirely.
                continue
            members = buckets.get(value // widths[attribute])
            if members:
                candidates.update(members)
        return self._verify(candidates, event)
