"""The Chord overlay: finger tables over the shared ring machinery.

Membership, the KN-mapping (``owner_of``) and neighbor lookup live in
:class:`~repro.overlay.ring.RingOverlay`, the message entry points in
:class:`~repro.overlay.api.OverlayNetwork`; this class contributes the
:class:`~repro.overlay.chord.node.ChordNode` that implements greedy
routing over the finger table of Section 3.1.1 (read off the sorted
ring, one slot per hop), the location cache and the ``m-cast``
algorithm of Fig. 4, and the whole table as ground truth for tests.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.overlay.chord.node import ChordNode
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.ring import RingOverlay
from repro.sim.kernel import Simulator


class ChordOverlay(RingOverlay):
    """A simulated Chord ring.

    Args:
        sim: The simulation kernel.
        keyspace: The ``m``-bit identifier space (the paper uses m=13).
        network: Message transport; a default :class:`Network` with the
            paper's 50 ms fixed hop delay is created if omitted.
        cache_capacity: Per-node location-cache size (0 disables the
            cache, yielding textbook ~½·log₂(n) routing; the default
            reproduces the paper's "finger caching" at ~2.5 hops for
            n = 500).
    """

    def __init__(
        self,
        sim: Simulator,
        keyspace: KeySpace,
        network: Network | None = None,
        cache_capacity: int = 128,
    ) -> None:
        super().__init__(sim, keyspace, network)
        if cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0 (0 = off), got {cache_capacity}"
            )
        self._cache_capacity = cache_capacity

    def _make_node(self, node_id: int) -> ChordNode:
        return ChordNode(node_id, self, cache_capacity=self._cache_capacity)

    def compute_finger_slots(self, node_id: int) -> list[int]:
        """Raw finger-table slots of ``node_id``: the owner of each start.

        Slot ``i`` (0-based) is ``owner_of(finger_start(node_id, i+1))``,
        *including* self-pointing entries.  A
        :class:`~repro.overlay.chord.node.ChordNode` hop reads one slot
        of it off the ring, the same bisect per start.
        """
        finger_start = self._keyspace.finger_start
        return self.owners_of(
            finger_start(node_id, index)
            for index in range(1, self._keyspace.bits + 1)
        )

    def compute_fingers(self, node_id: int) -> list[int]:
        """Distinct live fingers of ``node_id`` in clockwise ring order.

        Entry ``i`` (1-based) of the Chord finger table is the successor
        of ``node_id + 2**(i-1)``; duplicates collapse, self-pointers
        drop out, and the list is ordered by clockwise distance so the
        first entry is always the node's successor.
        """
        distinct = set(self.compute_finger_slots(node_id))
        distinct.discard(node_id)
        return sorted(distinct, key=lambda f: self._keyspace.distance(node_id, f))
