"""A Pastry-style node: leaf span + per-bit prefix routing, read off the ring.

Routing works digit by digit (here: bit by bit).  To route toward key
``k``, a node forwards to its routing-table entry for the first bit
where its own id differs from ``k`` — that entry shares a strictly
longer prefix with ``k``, so every hop makes prefix progress and
routing terminates in at most ``m`` hops.  Once ``k``'s owner is within
``LEAF_SET_SIZE // 2`` ring steps (inside the leaf set's span), the
message jumps directly to it.  A node holds no routing state: every hop
reads both structures off the overlay's sorted ring.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.overlay.api import OverlayMessage, OverlayNode
from repro.overlay.ring import arc_span

#: Total leaf-set size L: L/2 ring neighbors per side.
LEAF_SET_SIZE = 8


def common_prefix_length(a: int, b: int, bits: int) -> int:
    """Number of leading bits shared by two m-bit identifiers."""
    difference = a ^ b
    if difference == 0:
        return bits
    return bits - difference.bit_length()


class PastryNode(OverlayNode):
    """One overlay node; its leaf set and prefix rows are the ring's."""

    owned_span = arc_span  # successor convention, as Chord

    def _next_hop(self, key: int) -> int | None:
        """The prefix-routing next hop toward ``key`` (None = deliver here).

        1. If we cover the key, deliver.
        2. If the key's owner is at most ``LEAF_SET_SIZE // 2`` ring
           steps away (the key lies within the leaf set's span), jump
           to it directly.
        3. Otherwise forward to the routing-table entry for the first
           differing bit: it shares a longer prefix with the key.
        4. If that row is empty, no live node shares a longer prefix
           with the key (it would lie in the row's half-space), so step
           clockwise to the successor (ring progress).
        """
        overlay = self._overlay
        ring = overlay._ring
        count = len(ring)
        me = self.id
        owner_index = bisect_left(ring, key) % count
        owner = ring[owner_index]
        if owner == me:
            return None
        my_index = bisect_left(ring, me)
        steps = (owner_index - my_index) % count
        if min(steps, count - steps) <= LEAF_SET_SIZE // 2:
            return owner
        # The key is not ours, so it differs from our id: shared < bits.
        shared = common_prefix_length(me, key, overlay.keyspace.bits)
        entry = overlay._table_row(me, shared)
        if entry is not None:
            return entry
        return ring[(my_index + 1) % count]

    def route_unicast(self, message: OverlayMessage, addressed: bool = False) -> None:
        """Prefix-route a unicast message toward its key.

        A message this node does not deliver is forwarded in place: the
        node holds its only reference (see
        :meth:`OverlayMessage.forwarded_copy`).  Every hop routes alike,
        so ``addressed`` changes nothing here.
        """
        key = message.key
        assert key is not None, "unicast message without a destination key"
        next_hop = self._next_hop(key)
        if next_hop is None:
            self._overlay.do_deliver(self, message)
            return
        message.hops += 1
        message.path += (self.id,)
        self._overlay._network_transmit(self.id, next_hop, message)

    # -- one-to-many ------------------------------------------------------------

    def pointers(self) -> tuple[list[int], int]:
        """My m-cast pointers, off the ring: the leaf set and the
        non-empty prefix rows.  The leaf set's successor half is
        certified."""
        overlay = self._overlay
        rows = overlay.compute_routing_table(self.id)
        pointers = overlay.compute_leaf_set(self.id)
        pointers += [row for row in rows if row is not None]
        return pointers, min(LEAF_SET_SIZE // 2, len(overlay._ring) - 1)
