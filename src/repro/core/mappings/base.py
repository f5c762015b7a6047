"""Shared machinery of the ak-mappings.

Every mapping is built from per-attribute hash functions
``hᵢ: Ωᵢ -> [0,1]ˡ`` with ``hᵢ(x) = ⌊x · 2ˡ / |Ωᵢ|⌋`` (the paper's
scaling function), lifted to constraint images
``Hᵢ(σ.cᵢ) = {hᵢ(x) | x satisfies σ.cᵢ}``.

Discretization (Section 4.3.3) composes a fixed-width interval
quantizer in front of ``hᵢ``: all values in the same interval share one
rendezvous key.  Because the same quantizer is applied to both
subscription ranges and event values, the mapping intersection rule is
preserved for any interval width.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns, KeySpace


@dataclasses.dataclass(frozen=True)
class Discretization:
    """Per-attribute interval widths for the Section 4.3.3 optimization.

    A width of 1 on every attribute means *no* discretization.  The
    paper cautions that the number of possible intervals should exceed
    the number of nodes, or some nodes are never rendezvous and load
    imbalance follows; the experiment harness checks this.

    Attributes:
        widths: Interval width (in attribute-value units) per attribute.
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(width < 1 for width in self.widths):
            raise MappingError(f"interval widths must be >= 1, got {self.widths}")

    @classmethod
    def none(cls, dimensions: int) -> "Discretization":
        """The identity discretization (width 1 everywhere)."""
        return cls(widths=(1,) * dimensions)

    @classmethod
    def uniform(cls, dimensions: int, width: int) -> "Discretization":
        """The same interval width on every attribute."""
        return cls(widths=(width,) * dimensions)

    def quantize(self, attribute: int, value: int) -> int:
        """Map ``value`` to the start of its interval on ``attribute``."""
        width = self.widths[attribute]
        return (value // width) * width


class AKMapping(abc.ABC):
    """Base class of the three stateless mappings.

    Args:
        space: The event space Ω.
        keyspace: The overlay key space K (with ``m = keyspace.bits``).
        discretization: Optional Section 4.3.3 interval widths.
    """

    #: Paper name of the mapping, e.g. ``"attribute-split"``.
    name: str = "abstract"

    def __init__(
        self,
        space: EventSpace,
        keyspace: KeySpace,
        discretization: Discretization | None = None,
    ) -> None:
        self._space = space
        self._keyspace = keyspace
        self._discretization = discretization or Discretization.none(space.dimensions)
        if len(self._discretization.widths) != space.dimensions:
            raise MappingError(
                f"discretization has {len(self._discretization.widths)} widths "
                f"for a {space.dimensions}-dimensional space"
            )

    @property
    def space(self) -> EventSpace:
        """The event space this mapping is defined over."""
        return self._space

    @property
    def keyspace(self) -> KeySpace:
        """The overlay key space this mapping targets."""
        return self._keyspace

    @property
    def discretization(self) -> Discretization:
        """The active interval widths (width 1 = no discretization)."""
        return self._discretization

    # -- the SK and EK functions ------------------------------------------

    @abc.abstractmethod
    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[KeyRuns, ...]:
        """SK(σ), structured into the mapping's natural key groups.

        Each group is the :class:`~repro.overlay.ids.KeyRuns` of one
        rendezvous *range* on the ring (one per hashed constraint for Mapping 1,
        a single group for Mapping 3, ...).  The grouping feeds the
        notification-collecting optimization of Section 4.3.2, which
        aggregates along a contiguous rendezvous range toward its
        middle "agent" node.
        """

    @abc.abstractmethod
    def event_keys(self, event: Event) -> KeyRuns:
        """EK(e): the rendezvous keys that must match this event."""

    def subscription_keys(self, subscription: Subscription) -> KeyRuns:
        """SK(σ) as one key set (union of the groups)."""
        return KeyRuns.union(self.subscription_key_groups(subscription))

    # -- shared hash machinery ---------------------------------------------

    def _domain_size(self, attribute: int) -> int:
        return self._space.attributes[attribute].size

    def _hash_value(self, attribute: int, value: int, bits: int) -> int:
        """hᵢ(x) = ⌊q(x) · 2ˡ / |Ωᵢ|⌋ with the discretization quantizer q."""
        quantized = self._discretization.quantize(attribute, value)
        return (quantized << bits) // self._domain_size(attribute)

    def _constraint_image(
        self, attribute: int, low: int, high: int, bits: int
    ) -> KeyRuns:
        """Hᵢ over the inclusive value range ``[low, high]``, as runs.

        Two regimes keep this O(output runs):

        - *sparse* (interval width spans >= 1 key): enumerate interval
          starts — consecutive starts may skip keys, which is exactly
          the point of discretization, so this is mostly one run per
          key;
        - *dense* (many values per key): the image of a contiguous
          value range under the monotone scaling hash is a contiguous
          key range, one run.
        """
        width = self._discretization.widths[attribute]
        domain = self._domain_size(attribute)
        first_interval = low // width
        last_interval = high // width
        if width << bits >= domain:
            return KeyRuns.from_keys(
                [
                    (interval * width << bits) // domain
                    for interval in range(first_interval, last_interval + 1)
                ]
            )
        first_key = (first_interval * width << bits) // domain
        last_key = (last_interval * width << bits) // domain
        return KeyRuns((first_key, last_key - first_key + 1))

    def check_intersection_rule(self, event: Event, subscription: Subscription) -> bool:
        """Verify EK(e) ∩ SK(σ) ≠ ∅ for a matching pair (testing aid)."""
        if not subscription.matches(event):
            return True
        return not self.event_keys(event).isdisjoint(
            self.subscription_keys(subscription)
        )
