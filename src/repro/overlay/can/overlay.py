"""The CAN overlay: zones, joins by splitting, the KN-mapping.

Membership lives here; the routing step each hop runs is
:class:`~repro.overlay.can.node.CanNode`'s.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.errors import ConfigurationError, OverlayError
from repro.overlay.api import OverlayNetwork
from repro.overlay.can.morton import axis_sizes, decompose, morton_decode
from repro.overlay.can.node import CanNode
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim.kernel import Simulator


class CanOverlay(OverlayNetwork):
    """A CAN built on quadtree zones over the Morton-mapped key space.

    Membership semantics (documented simplifications vs deployed CAN):

    - ``join(node_id)``: the id doubles as the joiner's random point
      (CAN's join picks a random point); the zone containing it splits
      in half and the joiner takes the half containing its point.
    - ``leave``/``crash``: the zone is absorbed by the owner of the
      *Morton-predecessor* zone (its interval extends over ours),
      standing in for CAN's takeover rule; :meth:`heir_of` exposes this
      so the pub/sub layer promotes replicas at the right node.

    Membership is held in two tables, both written where it changes:
    ``_geometry`` (member → its zone and the zone's cell rectangles)
    and ``_key_owner`` (key → owner).  Zone order, a node's neighbours
    and the split and absorb rules are all read off these two.
    """

    def __init__(
        self,
        sim: Simulator,
        keyspace: KeySpace,
        network: Network | None = None,
        *,
        express_links: bool = True,
        zone_jumps: bool = True,
        cache_capacity: int = 128,
    ) -> None:
        super().__init__(keyspace, sim, network or Network(sim))
        if cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0 (0 = off), got {cache_capacity}"
            )
        self._express_links = express_links
        self._zone_jumps = zone_jumps
        self._cache_capacity = cache_capacity
        self._size = keyspace.size
        # Owner -> (its zone's (start, length), the zone's cell
        # rectangles): what its node routes on, written by _place where
        # a zone moves and dropped on departure.  A zone may wrap the
        # origin; the zones tile the key space.  Its keys are the
        # membership; a sharded worker holds every entry but builds
        # CanNode state only for its own ids (`_local_filter`, set for
        # the duration of build_ring).
        self._geometry: dict[
            int, tuple[tuple[int, int], list[tuple[int, int, int, int]]]
        ] = {}
        self._local_filter: set[int] | None = None
        # Grid geometry tables, fixed for the life of the overlay: the
        # Morton decode of every key, the inverse (key at each grid
        # point), and the rectangle dimensions per cell size.  One
        # upfront pass replaces the per-hop bit-interleaving loops that
        # dominated routing profiles.
        bits = keyspace.bits
        x_size, y_size = axis_sizes(bits)
        self._x_size = x_size
        self._y_size = y_size
        points = [morton_decode(k, bits) for k in range(keyspace.size)]
        self._points = points
        point_keys = [0] * (x_size * y_size)
        for key, (x, y) in enumerate(points):
            point_keys[x * y_size + y] = key
        self._point_keys = point_keys
        # The routing-time KN-mapping, flat: slot k holds the owner of
        # key k.  _assign_keys is its only writer (build_ring, join,
        # _absorb); every ownership question is read from here.  The
        # auditor holds it to the run-length expansion of the zones.
        self._key_owner: list[int] = [0] * keyspace.size
        self._cell_dims = []
        for free in range(bits + 1):
            width_bits = sum(
                1 for position in range(bits - free, bits) if position % 2 == 0
            )
            self._cell_dims.append((1 << width_bits, 1 << (free - width_bits)))

    # -- accessors -----------------------------------------------------------

    @property
    def express_links(self) -> bool:
        """Whether unicast takes 2^k express shortcuts (m-cast reads them anyway)."""
        return self._express_links

    @property
    def zone_jumps(self) -> bool:
        """Whether routing probes past the adjacent zone's far edge."""
        return self._zone_jumps

    def node_ids(self) -> list[int]:
        """Live node ids, in zone (Morton-start) order."""
        return [owner for _, owner in self.zone_table()]

    def __len__(self) -> int:
        return len(self._geometry)

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._geometry

    def zone_of(self, node_id: int) -> tuple[int, int]:
        """``(start, length)`` of the node's zone (may wrap the origin)."""
        try:
            return self._geometry[node_id][0]
        except KeyError:
            raise OverlayError(f"no live node with id {node_id}") from None

    def compute_cells(self, node_id: int) -> list[tuple[int, int]]:
        """Morton-cell decomposition of the node's zone.

        The canonical ``(start, size)`` maximal aligned cells of
        :meth:`zone_of`; a zone wrapping the origin decomposes as two
        plain intervals.  A geometry entry holds the rectangles of
        exactly these cells, and the auditor holds every entry to them.
        """
        return self._decompose(*self.zone_of(node_id))

    def _decompose(self, start: int, length: int) -> list[tuple[int, int]]:
        bits = self._keyspace.bits
        size = self._keyspace.size
        if start + length <= size:
            return decompose(start, length, bits)
        head = size - start
        return decompose(start, head, bits) + decompose(0, length - head, bits)

    def compute_express_links(self, node_id: int) -> list[int]:
        """Ground-truth express links: the owner of the key at Morton
        distance ``2^k`` ahead of ``node_id``, for each ``k``.

        :meth:`CanNode._next_hop` and :meth:`CanNode.mcast_pointers` read
        exactly these owners off the key→owner table; this reference
        reads them off :meth:`zone_table` instead, and the tests hold
        the two to each other.
        """
        size = self._keyspace.size
        table = self.zone_table()
        starts = [start for start, _ in table]
        bisect_right = bisect.bisect_right
        # Index -1 is the last zone: it wraps over the keys below the
        # first start.
        return [
            table[bisect_right(starts, (node_id + (1 << k)) % size) - 1][1]
            for k in range(self._keyspace.bits)
        ]

    def zone_geometry(
        self, node_id: int
    ) -> tuple[tuple[int, int], list[tuple[int, int, int, int]]]:
        """A copy of ``node_id``'s geometry entry: ``(zone, rects)``.

        Introspection for the auditor, which holds the zones to a
        tiling of the key space and the rectangles to the zone's cells.
        """
        zone, rects = self._geometry[node_id]
        return zone, list(rects)

    def _place(self, node_id: int, zone: tuple[int, int]) -> None:
        """Write ``node_id``'s geometry entry: ``zone`` and its cells'
        rectangles."""
        rect_of_cell = self.rect_of_cell
        self._geometry[node_id] = (
            zone, [rect_of_cell(s, z) for s, z in self._decompose(*zone)]
        )

    def rect_of_cell(self, start: int, size: int) -> tuple[int, int, int, int]:
        """``zone_rectangle`` via the precomputed geometry tables."""
        x0, y0 = self._points[start]
        width, height = self._cell_dims[size.bit_length() - 1]
        return x0, y0, width, height

    def zone_table(self) -> list[tuple[int, int]]:
        """The ``(zone start, owner)`` pairs in Morton-start order: the
        geometry entries, sorted.  The last zone may wrap the origin
        over the keys below the first start."""
        return sorted([(zone[0], owner) for owner, (zone, _) in self._geometry.items()])

    def key_owner_table(self) -> list[int]:
        """A copy of the flat key→owner table routing reads.

        Introspection for the auditor, which holds it to the run-length
        expansion of the zones.
        """
        return list(self._key_owner)

    # -- membership -------------------------------------------------------------

    def build_ring(
        self, node_ids: Iterable[int], local: "set[int] | None" = None
    ) -> None:
        """Bulk construction: sequential CAN joins, first id bootstraps.

        ``local`` restricts node materialization to a shard's own ids
        (see :meth:`RingOverlay.build_ring`); the zone decomposition is
        computed over every id regardless, and **insertion order
        matters** — sharded workers must pass the ids in exactly the
        serial order so all shards (and the serial oracle) agree on the
        tessellation.
        """
        ids = list(dict.fromkeys(node_ids))
        if not ids:
            raise OverlayError("cannot build an empty overlay")
        if self._geometry:
            raise OverlayError("overlay already built; use join()")
        first, *rest = ids
        self._keyspace.validate(first)
        self._local_filter = local
        try:
            # The bootstrap node's zone is the whole torus, anchored at
            # its own id (so it trivially covers itself).
            self._assign_keys(0, self._keyspace.size, first)
            self._place(first, (first, self._keyspace.size))
            self._register(first)
            for node_id in rest:
                self.join(node_id)
        finally:
            self._local_filter = None

    def join(self, node_id: int) -> None:
        """CAN join: split the zone containing the joiner's point.

        The joiner's id doubles as CAN's "random point".  The cut is
        placed midway *between the owner's id and the joiner's id*
        (rather than at CAN's geometric midpoint) so that both nodes
        keep covering their own ids — the invariant the key-addressed
        notification path relies on.  With uniformly random ids the two
        conventions split zones equally in expectation.
        """
        self._keyspace.validate(node_id)
        if node_id in self._geometry:
            raise OverlayError(f"node {node_id} already joined")
        size = self._keyspace.size
        owner = self._key_owner[node_id]
        start, length = self._geometry[owner][0]
        owner_offset = (owner - start) % size
        joiner_offset = (node_id - start) % size
        cut_offset = (owner_offset + joiner_offset) // 2 + 1
        lower = (start, cut_offset)
        upper = ((start + cut_offset) % size, length - cut_offset)
        if joiner_offset > owner_offset:  # the joiner takes the upper part
            owner_zone, joiner_zone = lower, upper
        else:
            owner_zone, joiner_zone = upper, lower
        joiner_start, joiner_length = joiner_zone
        self._assign_keys(joiner_start, joiner_length, node_id)
        self._place(owner, owner_zone)
        self._place(node_id, joiner_zone)
        self._register(node_id)
        if self._state_transfer is not None:
            left = (joiner_start - 1) % size
            right = (joiner_start + joiner_length - 1) % size
            self._state_transfer(owner, node_id, (left, right))

    def leave(self, node_id: int) -> None:
        """Graceful departure: the heir absorbs the zone, state first."""
        if len(self._geometry) == 1:
            raise OverlayError("cannot remove the last node")
        heir = self.heir_of(node_id)
        start, length = self.zone_of(node_id)
        if self._state_transfer is not None:
            left = (start - 1) % self._keyspace.size
            right = (start + length - 1) % self._keyspace.size
            self._state_transfer(node_id, heir, (left, right))
        self._absorb(node_id)

    def crash(self, node_id: int) -> None:
        """Abrupt failure: zone absorbed, no handover."""
        if len(self._geometry) == 1:
            raise OverlayError("cannot remove the last node")
        self._absorb(node_id)

    def heir_of(self, node_id: int) -> int:
        """The node inheriting this node's zone on departure.

        The Morton-predecessor zone's owner: deleting our boundary
        extends that zone over ours (cyclically), standing in for CAN's
        smallest-neighbor takeover rule.  A single-node overlay is its
        own heir.
        """
        return self.predecessor_of(node_id)

    def _absorb(self, node_id: int) -> None:
        start, length = self.zone_of(node_id)
        heir = self._key_owner[start - 1]  # the key before my zone
        heir_start, heir_length = self._geometry[heir][0]
        self._assign_keys(start, length, heir)
        del self._geometry[node_id]
        self._place(heir, (heir_start, heir_length + length))
        if self._nodes.pop(node_id, None) is not None:
            self._network.unregister(node_id)

    def _assign_keys(self, start: int, length: int, owner: int) -> None:
        """Write ``owner`` over ``[start, start + length)`` of the
        key→owner table; a zone wrapping the origin is two slices."""
        table = self._key_owner
        size = len(table)
        end = start + length
        if end <= size:
            table[start:end] = [owner] * length
        else:
            table[start:] = [owner] * (size - start)
            table[: end - size] = [owner] * (end - size)

    def _register(self, node_id: int) -> None:
        local = self._local_filter
        if local is not None and node_id not in local:
            return
        node = CanNode(node_id, self, self._cache_capacity)
        self._nodes[node_id] = node
        self._network.register(node_id, node.receive)

    # -- KN-mapping ---------------------------------------------------------------

    def owner_of(self, key: int) -> int:
        if not self._geometry:
            raise OverlayError("empty overlay")
        return self._key_owner[self._keyspace.validate(key)]

    def successor_of(self, node_id: int) -> int:
        """The owner of the key one past the node's zone."""
        start, length = self.zone_of(node_id)
        return self._key_owner[(start + length) % self._size]

    def predecessor_of(self, node_id: int) -> int:
        """The owner of the key one before the node's zone."""
        return self._key_owner[self.zone_of(node_id)[0] - 1]
