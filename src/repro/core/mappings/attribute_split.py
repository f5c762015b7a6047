"""Mapping 1: Attribute-Split (Section 4.2).

Each constraint hashes independently to a set of keys with ``l = m``;
the subscription goes to the union ``SK(σ) = ∪ᵢ Hᵢ(σ.cᵢ)``.  An event
hashes by just one designated attribute, ``EK(e) = {hᵢ(e.aᵢ)}``, which
suffices for the intersection rule because σ is stored under *every*
attribute's image.

Cost profile: one key per publication, but
``O(Σᵢ ⌈rᵢ·2ᵐ/|Ωᵢ|⌉)`` keys per subscription — about 10x Mapping 3 for
the paper's 4-attribute workload — which is what makes the m-cast
primitive so valuable here (Fig. 5).

Unconstrained attributes of partially defined subscriptions are treated
as full-domain ranges (the subscription must be discoverable via any
attribute the event may hash by).
"""

from __future__ import annotations

from repro.core.events import Event
from repro.core.mappings.base import AKMapping
from repro.core.subscriptions import Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns


class AttributeSplitMapping(AKMapping):
    """Mapping 1 of the paper.

    Args:
        space: Event space.
        keyspace: Overlay key space.
        discretization: Optional Section 4.3.3 interval widths.
        event_attribute: The attribute index events hash by.  Any fixed
            choice satisfies the intersection rule; it must simply be
            agreed system-wide (the mapping is static, Section 4.2).
    """

    name = "attribute-split"

    def __init__(self, space, keyspace, discretization=None, event_attribute: int = 0):
        super().__init__(space, keyspace, discretization)
        if not 0 <= event_attribute < space.dimensions:
            raise MappingError(
                f"event attribute {event_attribute} outside "
                f"{space.dimensions}-dimensional space"
            )
        self._event_attribute = event_attribute

    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[KeyRuns, ...]:
        bits = self._keyspace.bits
        groups = []
        for attribute in range(self._space.dimensions):
            constraint = subscription.effective_constraint(attribute)
            groups.append(
                self._constraint_image(
                    attribute, constraint.low, constraint.high, bits
                )
            )
        return tuple(groups)

    def event_keys(self, event: Event) -> KeyRuns:
        bits = self._keyspace.bits
        key = self._hash_value(
            self._event_attribute, event.values[self._event_attribute], bits
        )
        return KeyRuns((key, 1))
