"""Event-space partitioning as a baseline mapping (related work [16]).

Section 2 contrasts the paper's architecture with *event space
partitioning* (Wang et al., DISC'02): divide the event space into a set
of rectangular partitions and assign each partition to one node, so
that each event is forwarded to exactly one place.  Expressed in this
library's terms it is simply another stateless ak-mapping — each
d-dimensional grid cell hashes to one overlay key; ``EK(e)`` is the
single cell containing the event, ``SK(σ)`` is every cell the
subscription's box overlaps — which makes it directly comparable to
the paper's three mappings under identical harnesses.

Characteristics (mirroring the paper's Section 2 discussion): minimal
event traffic (one rendezvous per event, like Key-Space-Split), but
subscription fan-out grows with the product of per-dimension overlaps
and, unlike Key-Space-Split, the grid resolution is a free parameter
decoupled from the key-space width.
"""

from __future__ import annotations

import hashlib
import itertools

from repro.core.events import Event
from repro.core.mappings.base import AKMapping
from repro.core.subscriptions import Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns

#: Refuse to materialize more cells than this per subscription.
MAX_CELLS_PER_SUBSCRIPTION = 1 << 20


class EventSpacePartitionMapping(AKMapping):
    """The related-work baseline: a fixed rectangular grid of partitions.

    Args:
        space: Event space.
        keyspace: Overlay key space.
        cells_per_dimension: Grid resolution G; the event space is cut
            into ``G**d`` cells.  Following the sizing logic of Section
            4.3.3, choose G so the total cell count comfortably exceeds
            the node count.
        discretization: Accepted for interface compatibility; the grid
            itself is the discretization, so this must be the identity.
    """

    name = "event-space-partition"

    def __init__(self, space, keyspace, cells_per_dimension: int = 16,
                 discretization=None):
        super().__init__(space, keyspace, discretization)
        if any(width != 1 for width in self.discretization.widths):
            raise MappingError(
                "event-space-partition defines its own grid; combine via "
                "cells_per_dimension instead of a discretization"
            )
        if cells_per_dimension < 1:
            raise MappingError("cells_per_dimension must be >= 1")
        self._cells = cells_per_dimension
        self._widths = [
            max(1, -(-attribute.size // cells_per_dimension))  # ceil
            for attribute in space.attributes
        ]

    def _cell_of(self, attribute: int, value: int) -> int:
        return min(self._cells - 1, value // self._widths[attribute])

    def _cell_key(self, cell: tuple[int, ...]) -> int:
        """Hash a cell coordinate onto the key space (uniform spread)."""
        digest = hashlib.sha1(repr(cell).encode()).digest()
        return int.from_bytes(digest[:8], "big") % self._keyspace.size

    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[KeyRuns, ...]:
        per_dimension: list[range] = []
        expected = 1
        for attribute in range(self._space.dimensions):
            constraint = subscription.effective_constraint(attribute)
            first = self._cell_of(attribute, constraint.low)
            last = self._cell_of(attribute, constraint.high)
            expected *= last - first + 1
            if expected > MAX_CELLS_PER_SUBSCRIPTION:
                raise MappingError(
                    "subscription overlaps more than "
                    f"{MAX_CELLS_PER_SUBSCRIPTION} partitions; use a coarser grid"
                )
            per_dimension.append(range(first, last + 1))
        keys = sorted(
            {self._cell_key(cell) for cell in itertools.product(*per_dimension)}
        )
        # Hashed cells are scattered on the ring: no contiguous range to
        # collect along, so each key forms its own group (the collecting
        # optimization degenerates to plain buffering, as it should).
        return tuple(KeyRuns((key, 1)) for key in keys)

    def event_keys(self, event: Event) -> KeyRuns:
        cell = tuple(
            self._cell_of(attribute, value)
            for attribute, value in enumerate(event.values)
        )
        return KeyRuns((self._cell_key(cell), 1))
