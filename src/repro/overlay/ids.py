"""Key-space and ring-interval arithmetic.

Structured overlays route by *logical keys* drawn from a space ``K`` of
``m``-bit identifiers ordered on a circle modulo ``2**m`` (the Chord
ring, Section 3.1.1 of the paper).  This module centralizes all modular
arithmetic on that circle: clockwise distance and circular interval
membership.

The paper's evaluation uses ``m = 13`` (a key space of size ``2**13``).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class KeySpace:
    """An ``m``-bit circular identifier space.

    Attributes:
        bits: Number of bits ``m``; keys are integers in ``[0, 2**m)``.
    """

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 160:
            raise ConfigurationError(
                f"key space bits must be in [1, 160], got {self.bits}"
            )

    @property
    def size(self) -> int:
        """Number of distinct keys, ``2**bits``."""
        return 1 << self.bits

    def contains(self, key: int) -> bool:
        """True if ``key`` is a valid identifier in this space."""
        return 0 <= key < self.size

    def validate(self, key: int) -> int:
        """Return ``key`` unchanged, raising if it is not an ``int`` (a
        ``bool`` is one) or is out of range."""
        # The exact-class test first: an int makes no isinstance call.
        if not (key.__class__ is int or isinstance(key, int)):
            raise ConfigurationError(
                f"key {key!r} is a {type(key).__name__}, not an int"
            )
        if not 0 <= key < 1 << self.bits:
            raise ConfigurationError(
                f"key {key} outside key space [0, {self.size})"
            )
        return key

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer onto the ring (mod ``2**bits``)."""
        return value % self.size

    def distance(self, src: int, dst: int) -> int:
        """Clockwise distance from ``src`` to ``dst`` on the ring.

        ``distance(a, a) == 0``; otherwise the number of unit steps
        clockwise (in increasing-id direction) from ``src`` to ``dst``.
        """
        return (dst - src) % self.size

    def in_open_closed(self, key: int, left: int, right: int) -> bool:
        """Circular membership test ``key in (left, right]``.

        This is the interval form Chord uses for successor coverage: the
        node with id ``right`` covers exactly the keys in
        ``(predecessor, right]``.  When ``left == right`` the interval is
        the whole ring (every key except none), matching a 1-node ring
        where the single node covers everything.
        """
        if left == right:
            return True
        return self.distance(left, key) <= self.distance(left, right) and key != left

    def in_open_open(self, key: int, left: int, right: int) -> bool:
        """Circular membership test ``key in (left, right)``.

        When ``left == right`` the interval is the whole ring minus the
        endpoint (Chord's convention for a single-node ring).
        """
        if left == right:
            return key != left
        return 0 < self.distance(left, key) < self.distance(left, right)

    def finger_start(self, node_id: int, index: int) -> int:
        """Start of the ``index``-th finger interval of ``node_id``.

        Chord defines the *i*-th finger of node *n* as the successor of
        ``(n + 2**(i-1)) mod 2**m`` for ``i`` in ``[1, m]``.  ``index``
        here is 1-based to match the paper.
        """
        if not 1 <= index <= self.bits:
            raise ConfigurationError(
                f"finger index must be in [1, {self.bits}], got {index}"
            )
        return self.wrap(node_id + (1 << (index - 1)))
