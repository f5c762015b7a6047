"""The Pastry-style overlay: leaf sets and per-bit routing tables, read
off the sorted ring whenever a node routes."""

from __future__ import annotations

import bisect

from repro.overlay.pastry.node import LEAF_SET_SIZE, PastryNode
from repro.overlay.ring import RingOverlay


class PastryOverlay(RingOverlay):
    """A prefix-routing overlay behind the common ring interface.

    Args:
        sim: The simulation kernel.
        keyspace: The m-bit identifier space.
        network: Message transport (defaults to 50 ms fixed delay).
        state_transfer: Optional Section 4.1 churn hook.
    """

    def _make_node(self, node_id: int) -> PastryNode:
        return PastryNode(node_id, self)

    def compute_leaf_set(self, node_id: int) -> list[int]:
        """Up to ``LEAF_SET_SIZE // 2`` ring neighbors per side, in ring order.

        "Ring order" here means clockwise order starting from the
        farthest counter-clockwise leaf, so the list spans a contiguous
        arc with ``node_id`` conceptually in the middle (the node itself
        is excluded).
        """
        index = self._ring_index(node_id)
        n = len(self._ring)
        before = [
            self._ring[(index - offset) % n]
            for offset in range(min(LEAF_SET_SIZE // 2, n - 1), 0, -1)
        ]
        after = [
            self._ring[(index + offset) % n]
            for offset in range(1, min(LEAF_SET_SIZE // 2, n - 1) + 1)
        ]
        # De-duplicate for tiny rings where the arcs overlap.
        seen: set[int] = {node_id}
        leaves: list[int] = []
        for candidate in before + after:
            if candidate not in seen:
                seen.add(candidate)
                leaves.append(candidate)
        return leaves

    def compute_routing_table(self, node_id: int) -> list[int | None]:
        """Entry ``i``: a live node sharing exactly ``i`` leading bits.

        The half-space of ids that share the first ``i`` bits with
        ``node_id`` but differ at bit ``i`` is the contiguous interval
        ``[prefix', prefix' + 2**(m-i-1))`` where ``prefix'`` flips bit
        ``i``.  We pick the first live node inside it (deterministic,
        and independent of this node's position within its own
        interval), or None when the interval holds no node.
        """
        bits = self._keyspace.bits
        return [self._table_row(node_id, position) for position in range(bits)]

    def _table_row(self, node_id: int, position: int) -> int | None:
        """Routing-table entry ``position`` of ``node_id``, read off the
        current ring (:meth:`compute_routing_table` maps it over all
        rows)."""
        bits = self._keyspace.bits
        shift = bits - 1 - position
        flipped = node_id ^ (1 << shift)
        start = (flipped >> shift) << shift
        end = start + (1 << shift)  # exclusive
        index = bisect.bisect_left(self._ring, start)
        if index < len(self._ring) and self._ring[index] < end:
            return self._ring[index]
        return None
