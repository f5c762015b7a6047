"""Radix/bitmap matching index for equality-dense workloads.

Strategy: like the bucket grid, each subscription is registered under
its *anchor* attribute (most selective constraint) — but instead of
fixed-width buckets, the anchor range is decomposed into its canonical
*radix blocks*: maximal binary-aligned value prefixes, the same
splitting that turns an IP range into CIDR prefixes.  A range of width
``r`` over a ``b``-bit domain becomes at most ``2b`` blocks, each
stored in a per-level hash table; an equality constraint is a single
level-0 entry.

Matching probes, for each attribute, the event value's prefix at every
*occupied* level — a per-attribute bitmask records which levels hold
any block, so an equality-only store probes exactly one hash slot per
attribute.  A probe hit is exact on the anchor attribute (the block is
entirely inside the range), so unlike the grid there are no anchor
false candidates; the survivors are verified against their remaining
constraints only because a subscription constrains more than its
anchor.

Compared with :class:`~repro.matching.index.GridIndexMatcher` this
trades the grid's fixed per-probe cost for one that scales with the
diversity of range *widths* actually stored — on workloads dominated
by equality constraints (level bitmap = {0}) it degenerates to a
single exact dictionary lookup per attribute.
"""

from __future__ import annotations

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.matching.base import IndexedMatcher


def radix_blocks(low: int, high: int) -> list[tuple[int, int]]:
    """Canonical ``(prefix, level)`` decomposition of ``[low, high]``.

    Each block covers the values ``[prefix << level, (prefix + 1) <<
    level)``; blocks are maximal (doubling any would leave the range),
    disjoint, and cover the range exactly.  An inclusive range over a
    ``b``-bit domain yields at most ``2b`` blocks.
    """
    blocks: list[tuple[int, int]] = []
    position, end = low, high + 1  # half-open
    while position < end:
        if position:
            level = (position & -position).bit_length() - 1  # alignment
        else:
            level = (end - 1).bit_length()  # 0 is aligned at any level
        while (1 << level) > end - position:
            level -= 1
        blocks.append((position >> level, level))
        position += 1 << level
    return blocks


class RadixBitmapMatcher(IndexedMatcher):
    """Per-attribute radix-block index with an occupied-level bitmap.

    Args:
        space: The event space all indexed subscriptions must share.
    """

    def __init__(self, space: EventSpace) -> None:
        super().__init__(space)
        bits = [
            max(1, (attribute.size - 1).bit_length())
            for attribute in space.attributes
        ]
        # _tables[attribute][level][prefix] -> {subscription_id}; one
        # table per level so a probe is a plain int-keyed dict lookup.
        self._tables: list[list[dict[int, set[int]]]] = [
            [{} for _ in range(b + 1)] for b in bits
        ]
        # Bit ``l`` set <=> some block is stored at level ``l``; the
        # match loop iterates set bits only.  _level_counts backs the
        # bitmap so removals can clear bits exactly.
        self._level_bits: list[int] = [0] * space.dimensions
        self._level_counts: list[dict[int, int]] = [
            {} for _ in range(space.dimensions)
        ]

    def _anchor_blocks(self, subscription: Subscription) -> tuple[int, list]:
        anchor = subscription.anchor
        return anchor, radix_blocks(
            subscription.lows[anchor], subscription.highs[anchor]
        )

    def add(self, subscription: Subscription) -> None:
        if not self._store(subscription):
            return
        sid = subscription.subscription_id
        if not subscription.rows:
            self._catch_all.add(sid)
            return
        anchor, blocks = self._anchor_blocks(subscription)
        tables = self._tables[anchor]
        counts = self._level_counts[anchor]
        for prefix, level in blocks:
            tables[level].setdefault(prefix, set()).add(sid)
            counts[level] = counts.get(level, 0) + 1
            self._level_bits[anchor] |= 1 << level

    def remove(self, subscription_id: int) -> bool:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            return False
        if not subscription.rows:
            self._catch_all.discard(subscription_id)
            return True
        anchor, blocks = self._anchor_blocks(subscription)
        tables = self._tables[anchor]
        counts = self._level_counts[anchor]
        for prefix, level in blocks:
            table = tables[level]
            members = table.get(prefix)
            if members is not None:
                members.discard(subscription_id)
                if not members:
                    del table[prefix]
            remaining = counts[level] - 1
            if remaining:
                counts[level] = remaining
            else:
                del counts[level]
                self._level_bits[anchor] &= ~(1 << level)
        return True

    def match(self, event: Event) -> list[Subscription]:
        candidates: set[int] = set(self._catch_all)
        tables = self._tables
        level_bits = self._level_bits
        for attribute, value in enumerate(event.values):
            bits = level_bits[attribute]
            if not bits:
                continue  # nothing anchored on this attribute
            attr_tables = tables[attribute]
            while bits:
                level = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                members = attr_tables[level].get(value >> level)
                if members:
                    candidates.update(members)
        return self._verify(candidates, event)
