"""Key-space and ring-interval arithmetic.

Structured overlays route by *logical keys* drawn from a space ``K`` of
``m``-bit identifiers ordered on a circle modulo ``2**m`` (the Chord
ring, Section 3.1.1 of the paper).  This module centralizes all modular
arithmetic on that circle: clockwise distance and circular interval
membership, and :class:`KeyRuns`, the one type a set of keys travels as.

The paper's evaluation uses ``m = 13`` (a key space of size ``2**13``).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from itertools import chain
from operator import add
from typing import Iterable

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


class KeyRuns(tuple):
    """A set of keys held as sorted, disjoint ``(start, length)`` runs,
    stored flat: ``(start, length, start, length, ...)``.

    Under the paper's scaling hash a value range is one contiguous key
    range (§3), so SK(σ) is a few runs however many keys it holds.  The
    form is canonical: runs ascend by start, none wraps past 0 (``start
    + length <= 2**m``; a range across 0 is two runs) and no two touch,
    so one key set has one flat tuple.

    As a tuple it *is* that flat form: indexing and slicing read runs
    (``runs[::2]`` the starts, ``runs[1::2]`` the lengths), building one
    from a flat tuple or list is a type call, no Python frame, and two
    compare (and hash) as their flat tuples, which the canonical form
    makes the same as comparing key sets.  As a set it counts
    (``len``), tests (``in``) and iterates keys, ascending (clockwise
    from 0); EK(e), SK(σ) and an m-cast's targets are all this one type,
    so they meet run by run (:meth:`isdisjoint`, :meth:`split`).
    """

    __slots__ = ()

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "KeyRuns":
        """The runs of a key collection (duplicates allowed)."""
        flat: list[int] = []
        last = -2
        for key in sorted(keys):
            if key == last + 1:  # extends the run
                flat[-1] += 1
            elif key != last:  # a gap: a new run
                flat += (key, 1)
            last = key
        return cls(flat)

    @classmethod
    def union(cls, groups: Iterable["KeyRuns"]) -> "KeyRuns":
        """The union of several key sets (SK(σ) from its groups)."""
        groups = tuple(groups)
        if len(groups) == 1:
            return groups[0]
        runs = sorted(
            pair for group in groups for pair in zip(group[::2], group[1::2])
        )
        flat: list[int] = []
        stop = -2
        for start, length in runs:
            if start <= stop:  # overlaps or touches the run before
                if start + length > stop:
                    flat[-1] += start + length - stop
                    stop = start + length
            else:
                flat += (start, length)
                stop = start + length
        return cls(flat)

    def meets(self, start: int, length: int, size: int) -> bool:
        """True if a key lies within the ``length`` keys clockwise from
        ``start`` on a ring of ``size`` keys: a run's start lies in that
        span, or the span's start lies in the run."""
        for first, count in zip(self[::2], self[1::2]):
            if (first - start) % size < length or (start - first) % size < count:
                return True
        return False

    def split(self, start: int, length: int, size: int) -> tuple["KeyRuns", "KeyRuns"]:
        """``(inside, outside)``: the keys within the ``length`` keys
        clockwise from ``start`` on a ring of ``size`` keys (an owned
        span; it may wrap past 0), and the rest."""
        if length >= size:
            return self, KeyRuns()
        stop = start + length
        if stop > size:  # wraps past 0: two pieces, ascending
            pieces = ((0, stop - size), (start, size))
        else:
            pieces = ((start, stop),)
        inside: list[int] = []
        outside: list[int] = []
        for first, count in zip(self[::2], self[1::2]):
            cursor, end = first, first + count
            for low, high in pieces:
                if low < cursor:
                    low = cursor
                if high > end:
                    high = end
                if low < high:
                    if cursor < low:
                        outside += (cursor, low - cursor)
                    inside += (low, high - low)
                    cursor = high
            if cursor < end:
                outside += (cursor, end - cursor)
        return KeyRuns(inside), KeyRuns(outside)

    # -- the set view ----------------------------------------------------

    def __len__(self) -> int:
        count = 0
        for length in self[1::2]:
            count += length
        return count

    def __iter__(self):
        starts = self[::2]
        return chain.from_iterable(map(range, starts, map(add, starts, self[1::2])))

    def __contains__(self, key: object) -> bool:
        starts = self[::2]
        at = bisect_right(starts, key)
        return at > 0 and key < starts[at - 1] + self[2 * at - 1]

    def __repr__(self) -> str:
        return f"KeyRuns({tuple.__repr__(self)})"

    def isdisjoint(self, other: "KeyRuns") -> bool:
        """True if no key is in both: one merge walk over the two run
        lists, O(runs), made of indexing and comparisons alone."""
        at = 0
        try:
            for start, length in zip(self[::2], self[1::2]):
                while other[at] + other[at + 1] <= start:  # theirs ends first
                    at += 2
                if other[at] < start + length:  # and starts before ours ends
                    return False
        except IndexError:  # their runs are used up
            pass
        return True
