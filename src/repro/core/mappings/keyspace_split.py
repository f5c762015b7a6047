"""Mapping 2: Key Space-Split (Section 4.2).

The ``m`` key bits are partitioned across the ``d`` attributes:
``l = ⌊m/d⌋`` bits each.  A subscription maps to every concatenation of
per-attribute bit strings drawn from the constraint images,
``SK(σ) = {s₁∘...∘s_d | sᵢ ∈ Hᵢ(σ.cᵢ)}``; an event maps to the single
concatenation of its value hashes, ``EK(e) = h₁(e.a₁)∘...∘h_d(e.a_d)``.

With the paper's parameters (m=13, d=4 so l=3) a typical non-selective
constraint image is a single 3-bit string, so most subscriptions map to
"slightly over one" key (Section 5.2) — the best storage scalability of
the three mappings when no selective attribute exists (Fig. 8).

Implementation note: ``d·l`` may be smaller than ``m`` (13 = 4·3 + 1
here).  Raw concatenations would then occupy only the bottom
``2^(d·l)`` positions of the ring, concentrating all load on the nodes
covering that arc.  We therefore place concatenated strings in the
**top** bits (shift left by ``m - d·l``), spreading the ``2^(d·l)``
rendezvous positions evenly around the ring.  This changes no key
*cardinality* (the quantity the paper analyzes) — only the positions —
and keeps consistent hashing's load balance.
"""

from __future__ import annotations

import itertools

from repro.core.events import Event
from repro.core.mappings.base import AKMapping
from repro.core.subscriptions import Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns

#: Refuse to materialize more concatenations than this per subscription.
MAX_PRODUCT_KEYS = 1 << 20


class KeySpaceSplitMapping(AKMapping):
    """Mapping 2 of the paper."""

    name = "keyspace-split"

    def __init__(self, space, keyspace, discretization=None):
        super().__init__(space, keyspace, discretization)
        self._bits_per_attribute = keyspace.bits // space.dimensions
        if self._bits_per_attribute < 1:
            raise MappingError(
                f"key space of {keyspace.bits} bits cannot be split across "
                f"{space.dimensions} attributes"
            )

    @property
    def bits_per_attribute(self) -> int:
        """``l = ⌊m/d⌋``, the per-attribute share of the key bits."""
        return self._bits_per_attribute

    def _concatenate(self, pieces: tuple[int, ...]) -> int:
        l = self._bits_per_attribute
        value = 0
        for piece in pieces:
            value = (value << l) | piece
        unused = self._keyspace.bits - l * self._space.dimensions
        return value << unused

    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[KeyRuns, ...]:
        l = self._bits_per_attribute
        images = []
        expected = 1
        for attribute in range(self._space.dimensions):
            constraint = subscription.effective_constraint(attribute)
            image = self._constraint_image(attribute, constraint.low, constraint.high, l)
            expected *= len(image)
            if expected > MAX_PRODUCT_KEYS:
                raise MappingError(
                    f"subscription maps to over {MAX_PRODUCT_KEYS} keys under "
                    "keyspace-split; constrain more attributes or discretize"
                )
            images.append(image)
        return (
            KeyRuns.from_keys(
                self._concatenate(pieces) for pieces in itertools.product(*images)
            ),
        )

    def event_keys(self, event: Event) -> KeyRuns:
        l = self._bits_per_attribute
        pieces = tuple(
            self._hash_value(attribute, value, l)
            for attribute, value in enumerate(event.values)
        )
        return KeyRuns((self._concatenate(pieces), 1))
