"""Mapping 3: Selective-Attribute (Section 4.2).

A subscription maps only by its *most selective* constraint — the one
with minimal ``rᵢ/|Ωᵢ|`` — so ``SK(σ) = H_s(σ.c_s)`` with ``l = m``.
Since the event side cannot know which attribute was selective for any
given subscription, an event maps by **every** attribute:
``EK(e) = ∪ᵢ {hᵢ(e.aᵢ)}`` (d keys in the worst case).

This is at least d times cheaper than Attribute-Split on the
subscription side, collapses to a single key when an equality/selective
constraint is present, and is the least sensitive mapping to partially
defined subscriptions — at the price of d rendezvous per publication,
which hurts when the workload is publication-dominated (Section 4.2).
"""

from __future__ import annotations

from repro.core.events import Event
from repro.core.mappings.base import AKMapping
from repro.core.subscriptions import Subscription
from repro.errors import MappingError


class SelectiveAttributeMapping(AKMapping):
    """Mapping 3 of the paper."""

    name = "selective-attribute"

    def __init__(self, space, keyspace, discretization=None) -> None:
        super().__init__(space, keyspace, discretization)
        # hᵢ's two constants, (interval width, |Ωᵢ|), per attribute:
        # event_keys hashes every attribute of every publication.
        self._scales = tuple(
            zip(
                self._discretization.widths,
                [attribute.size for attribute in space.attributes],
            )
        )

    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[tuple[int, ...], ...]:
        if not subscription.constraints:
            raise MappingError(
                "selective-attribute cannot map a subscription with no constraints"
            )
        bits = self._keyspace.bits
        selective = subscription.most_selective_attribute()
        constraint = subscription.constraint_on(selective)
        assert constraint is not None
        group = self._constraint_image(
            selective, constraint.low, constraint.high, bits
        )
        return (group,)

    def event_keys(self, event: Event) -> frozenset[int]:
        # _hash_value per attribute, inline over the (width, |Ωᵢ|) table.
        bits = self._keyspace.bits
        return frozenset(
            [
                (value // width * width << bits) // domain
                for (width, domain), value in zip(self._scales, event.values)
            ]
        )
