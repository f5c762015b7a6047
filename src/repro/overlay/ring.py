"""Shared machinery of ring-structured overlays.

Both ring overlays in this library (Chord and the Pastry-style prefix
router) organize nodes on the same circular identifier space, assign
each key to its successor node, and support the same membership
operations.  :class:`RingOverlay` factors that common core: the sorted
ring, the KN-mapping (``owner_of``), the successor and predecessor
pointers, and join/leave/crash with the Section 4.1 state-transfer
hooks.  The node table, the message entry points and the maintenance
counters live in :class:`~repro.overlay.api.OverlayNetwork`.
Subclasses contribute a node type by overriding :meth:`_make_node`.

No node holds membership-derived state: a Chord or Pastry hop reads
its fingers or its leaf span and prefix row off the sorted ring, and
every member's predecessor is held once, here, in ``_pred``.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.errors import OverlayError
from repro.overlay.api import OverlayNetwork, OverlayNode
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim.kernel import Simulator


def arc_span(node: OverlayNode) -> tuple[int, int]:
    """A ring node's ``owned_span``: its arc ``(pred, self]`` as
    ``(start, length)``, the ``length`` keys clockwise from ``start``;
    the whole ring when it is alone.  Chord and Pastry nodes share it."""
    overlay = node._overlay
    me, size = node.id, overlay._key_limit
    predecessor = overlay._pred[me]
    # (me - pred - 1) % size + 1: the arc's length, size when pred == me.
    return (predecessor + 1) % size, (me - predecessor - 1) % size + 1


class RingOverlay(OverlayNetwork):
    """Base class: ring membership, KN-mapping and neighbor pointers.

    The sorted ring and ``_pred`` are written wherever membership
    changes, and nodes read both at every hop, so a joiner routes
    exactly from its first message.

    Args:
        sim: The simulation kernel.
        keyspace: The m-bit identifier space.
        network: Message transport (defaults to 50 ms fixed delay).
    """

    def __init__(
        self,
        sim: Simulator,
        keyspace: KeySpace,
        network: Network | None = None,
    ) -> None:
        super().__init__(keyspace, sim, network or Network(sim))
        self._ring: list[int] = []
        # Member -> its ring predecessor (a sole node is its own),
        # written wherever membership changes.  Its keys are the
        # membership: a sharded worker knows the whole ring here but
        # builds node objects (`_nodes`) only for its own arc.
        self._pred: dict[int, int] = {}

    # -- subclass contribution ------------------------------------------------

    def _make_node(self, node_id: int) -> OverlayNode:
        """Create the routing-state object for a new node."""
        raise NotImplementedError

    # -- accessors --------------------------------------------------------

    def node_ids(self) -> list[int]:
        """Ids of all live nodes in ring order."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def is_alive(self, node_id: int) -> bool:
        """True if the node is currently part of the ring."""
        return node_id in self._pred

    # -- membership -------------------------------------------------------

    def build_ring(
        self, node_ids: Iterable[int], local: "set[int] | None" = None
    ) -> None:
        """Bulk-create a stable ring (all joins already converged).

        Matches the paper's measurement setup: the overlay is up before
        the pub/sub workload starts, so join traffic is not part of the
        reported message counts.

        Args:
            node_ids: Ids of every ring member.
            local: When given (sharded workers), only these ids get
                node objects and network registrations; the rest are
                ring members whose state lives in another shard.  The
                KN-mapping, neighbor pointers and routing ground truth
                are computed over the *full* ring either way.
        """
        ids = sorted(set(node_ids))
        if not ids:
            raise OverlayError("cannot build an empty ring")
        for node_id in ids:
            self._keyspace.validate(node_id)
        if self._ring:
            raise OverlayError("ring already built; use join() to add nodes")
        self._ring = ids
        self._pred = dict(zip(ids, ids[-1:] + ids[:-1]))
        for node_id in ids:
            if local is None or node_id in local:
                self._add_node(node_id)

    def join(self, node_id: int) -> None:
        """Add one node; the successor hands over the inherited keys."""
        self._keyspace.validate(node_id)
        if node_id in self._nodes:
            raise OverlayError(f"node {node_id} already in the ring")
        ring = self._ring
        index = bisect.bisect_left(ring, node_id)
        ring.insert(index, node_id)
        predecessor = ring[index - 1]
        successor = ring[(index + 1) % len(ring)]
        self._pred[node_id] = predecessor
        self._pred[successor] = node_id
        self._add_node(node_id)
        if len(ring) > 1 and self._state_transfer is not None:
            self._state_transfer(successor, node_id, (predecessor, node_id))

    def leave(self, node_id: int) -> None:
        """Graceful departure: state is handed to the successor first."""
        if node_id not in self._nodes:
            raise OverlayError(f"no live node with id {node_id}")
        if len(self._ring) == 1:
            raise OverlayError("cannot remove the last node of the ring")
        predecessor = self.predecessor_of(node_id)
        successor = self.successor_of(node_id)
        if self._state_transfer is not None:
            self._state_transfer(node_id, successor, (predecessor, node_id))
        self._remove_node(node_id)

    def crash(self, node_id: int) -> None:
        """Abrupt failure: no handover; the app recovers from replicas."""
        if node_id not in self._nodes:
            raise OverlayError(f"no live node with id {node_id}")
        if len(self._ring) == 1:
            raise OverlayError("cannot crash the last node of the ring")
        self._remove_node(node_id)

    def _add_node(self, node_id: int) -> None:
        node = self._make_node(node_id)
        self._nodes[node_id] = node
        self._network.register(node_id, node.receive)

    def _remove_node(self, node_id: int) -> None:
        ring = self._ring
        index = bisect.bisect_left(ring, node_id)
        del ring[index]
        self._pred[ring[index % len(ring)]] = self._pred.pop(node_id)
        del self._nodes[node_id]
        self._network.unregister(node_id)

    # -- KN-mapping and pointers -------------------------------------------

    def owner_of(self, key: int) -> int:
        """The successor node of ``key``: first live id >= key (wrapping)."""
        if not self._ring:
            raise OverlayError("empty ring")
        self._keyspace.validate(key)
        index = bisect.bisect_left(self._ring, key)
        if index == len(self._ring):
            index = 0
        return self._ring[index]

    def owners_of(self, keys: Iterable[int]) -> list[int]:
        """``owner_of`` for many already-validated keys.

        :meth:`~repro.overlay.chord.ChordOverlay.compute_finger_slots`
        maps every finger start through the KN-mapping at once; this
        skips the per-key validation (the starts are on-ring values) and
        rebinds the ring and bisect locally.
        """
        ring = self._ring
        if not ring:
            raise OverlayError("empty ring")
        count = len(ring)
        first = ring[0]
        search = bisect.bisect_left
        owners = []
        append = owners.append
        for key in keys:
            index = search(ring, key)
            append(ring[index] if index < count else first)
        return owners

    def successor_of(self, node_id: int) -> int:
        """The live node following ``node_id`` on the ring."""
        index = self._ring_index(node_id)
        return self._ring[(index + 1) % len(self._ring)]

    def predecessor_of(self, node_id: int) -> int:
        """The live node preceding ``node_id`` on the ring."""
        try:
            return self._pred[node_id]
        except KeyError:
            raise OverlayError(f"no live node with id {node_id}") from None

    def _ring_index(self, node_id: int) -> int:
        index = bisect.bisect_left(self._ring, node_id)
        if index >= len(self._ring) or self._ring[index] != node_id:
            raise OverlayError(f"no live node with id {node_id}")
        return index
