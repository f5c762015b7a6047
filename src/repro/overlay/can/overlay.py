"""The CAN overlay: zones, joins by splitting, greedy unicast, key-order m-cast."""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.errors import ConfigurationError, OverlayError
from repro.overlay.api import (
    OverlayMessage,
    OverlayNetwork,
    OverlayNode,
    StateTransferHook,
)
from repro.overlay.can.morton import axis_sizes, decompose, morton_decode
from repro.overlay.ids import KeySpace
from repro.overlay.location_cache import FOLD_AT, LocationCache
from repro.overlay.network import Network
from repro.sim.kernel import Simulator


class CanNode(OverlayNode):
    """One CAN node: greedy unicast and key-order m-cast over its zone.

    A real CAN node maintains a neighbor table with each neighbor's
    zone coordinates; forwarding picks the neighbor closest to the
    target point.  In this simulation the equivalent local knowledge is
    expressed as "the owner of the grid point one step outside my own
    boundary toward the target" — exactly what the neighbor table
    answers — resolved through the overlay's key→owner table.  M-cast
    does not route geometrically: zones are key intervals and the
    express links are Chord fingers in key space, so it splits its keys
    in key order over those links and the zone after its own (Fig. 4).

    Its :class:`~repro.overlay.location_cache.LocationCache` policy:
    every forward stamps ``id, zone`` on the path, a delivery logs the
    pair the request's origin stamped, and the node addressing a key (a
    unicast's sender, the sequential walk picking its next key) tries the
    cached owner before :meth:`_next_hop`; forwarders and m-cast do not.

    The node holds no geometry and no pointers of its own: its zone and
    the rectangles of its cells are the overlay's ``_geometry`` entry,
    and its express links and m-cast pointers are slots of the overlay's
    key→owner table, all written where membership changes, so they are
    current at every read.
    """

    def __init__(
        self, node_id: int, overlay: "CanOverlay", cache_capacity: int = 128
    ) -> None:
        super().__init__(node_id, overlay)
        self._cache = LocationCache(node_id, cache_capacity)

    def owned_span(self) -> tuple[int, int]:
        """My zone as ``(start, length)``: the ``length`` keys from
        ``start``, wrapping the origin."""
        return self._overlay._geometry[self.id][0]

    # -- message handling --------------------------------------------------

    def _next_hop(self, key: int) -> int | None:
        """Greedy geometric step toward ``key`` (None = deliver here).

        The potential is Φ = torus Manhattan distance from my zone's
        closest point to the target.  Every branch forwards to a node
        whose own closest-point distance is strictly below Φ, so
        routing terminates:

        - **express** (when enabled): the best 2^k-link whose decoded
          point at least halves Φ — such a point lies outside my zone,
          and its owner's zone reaches it, so the owner's Φ' < Φ;
        - **jump** (when enabled): probe past the far edge of the
          adjacent zone's maximal aligned cell along the dominant axis,
          clamped to the remaining delta — the probe point is
          ``advance ≥ 1`` units closer than Φ;
        - **unit step**: the classic one-grid-unit probe (Φ' ≤ Φ - 1).

        Runs at every hop of every unicast, so the step leaves
        this frame only for the jump's one bisect: ownership is an index
        into the overlay's key→owner table, the zone's rectangles are
        its geometry entry, and the torus arithmetic is inline
        (``morton.py`` keeps the helper forms;
        ``tests/overlay/test_can_next_hop_reference.py`` holds this
        method to them).
        """
        overlay = self._overlay
        key_owner = overlay._key_owner
        me = self.id
        if key_owner[key] == me:
            return None
        x_size = overlay._x_size
        y_size = overlay._y_size
        points = overlay._points
        tx, ty = points[key]
        # Closest point of my zone (inlined rect_closest_point + torus
        # distance over the zone's rectangles; same cell order and
        # tie-breaks as the morton.py helpers).
        best_distance = -1
        best_px = best_py = 0
        for x0, y0, width, height in overlay._geometry[me][1]:
            offset = (tx - x0) % x_size
            if offset < width:
                px = tx
                ax = 0
            else:
                back = x_size - offset
                to_start = offset if offset < back else back
                last = (x0 + width - 1) % x_size
                offl = (tx - last) % x_size
                backl = x_size - offl
                to_last = offl if offl < backl else backl
                if to_start <= to_last:
                    px = x0
                    ax = to_start
                else:
                    px = last
                    ax = to_last
            offset = (ty - y0) % y_size
            if offset < height:
                py = ty
                ay = 0
            else:
                back = y_size - offset
                to_start = offset if offset < back else back
                last = (y0 + height - 1) % y_size
                offl = (ty - last) % y_size
                backl = y_size - offl
                to_last = offl if offl < backl else backl
                if to_start <= to_last:
                    py = y0
                    ay = to_start
                else:
                    py = last
                    ay = to_last
            distance = ax + ay
            if best_distance < 0 or distance < best_distance:
                best_distance = distance
                best_px = px
                best_py = py
        if best_distance > 1 and overlay._express_links:
            # Link k is the owner of the key 2^k ahead of my id, for
            # k = 0, 1, ... (the distance doubles up to the size).
            size = overlay._size
            best_key = -1
            best_d = best_distance
            distance = 1
            while distance < size:
                link_key = (me + distance) % size
                distance <<= 1
                ex, ey = points[link_key]
                dxo = (tx - ex) % x_size
                if dxo + dxo > x_size:
                    dxo = x_size - dxo
                dyo = (ty - ey) % y_size
                if dyo + dyo > y_size:
                    dyo = y_size - dyo
                d = dxo + dyo
                if d < best_d and key_owner[link_key] != me:
                    best_d = d
                    best_key = link_key
            # Only shortcut when the link at least halves the distance;
            # small wins are left to the zone jump, which advances
            # without spending a hop on a marginal improvement.
            if best_key >= 0 and best_d + best_d <= best_distance:
                return key_owner[best_key]
        # Signed shortest torus deltas from the closest point to the
        # target, as (magnitude, direction); a tie goes forward.
        forward = (tx - best_px) % x_size
        backward = x_size - forward
        if forward <= backward:
            x_remaining = forward
            x_step = 1
        else:
            x_remaining = backward
            x_step = -1
        forward = (ty - best_py) % y_size
        backward = y_size - forward
        if forward <= backward:
            y_remaining = forward
            y_step = 1 if forward else -1
        else:
            y_remaining = backward
            y_step = -1
        if x_remaining >= y_remaining and x_remaining != 0:
            step = x_step
            nx = (best_px + step) % x_size
            ny = best_py
            axis_x = True
            remaining = x_remaining
        else:
            step = y_step
            nx = best_px
            ny = (best_py + step) % y_size
            axis_x = False
            remaining = y_remaining
        point_keys = overlay._point_keys
        probe_key = point_keys[nx * y_size + ny]
        next_owner = key_owner[probe_key]
        if (
            remaining > 1
            and overlay._zone_jumps
            and next_owner != me
            and key_owner[probe_key ^ 1] == next_owner
        ):
            # Probe one unit past the far edge of the adjacent zone's
            # maximal aligned cell around the probe point, clamped so
            # the probe never overshoots the target's axis coordinate.
            # The cell may cross neither a zone boundary nor the origin.
            # It is wider than the probe key only when the key's sibling
            # is in the same zone (tested above; the two are adjacent
            # and on one side of the origin, so one owner means one
            # piece of its zone), and only then is the bisect for the
            # zone starts either side of the probe key paid.
            starts = overlay._starts
            j = bisect.bisect_right(starts, probe_key)
            lo = starts[j - 1] if j else 0
            hi = starts[j] if probe_key < starts[-1] else len(key_owner)
            csize = 2
            free = 1
            while True:
                nsize = csize << 1
                nstart = probe_key & -nsize
                if nstart < lo or nstart + nsize > hi:
                    break
                csize = nsize
                free += 1
            x0, y0 = points[probe_key & -csize]
            cw, ch = overlay._cell_dims[free]
            if axis_x:
                extra = (x0 + cw - 1 - nx) if step > 0 else (nx - x0)
            else:
                extra = (y0 + ch - 1 - ny) if step > 0 else (ny - y0)
            # At least two units: one into the cell, one past its edge.
            advance = extra + 2
            if advance > remaining:
                advance = remaining
            if axis_x:
                nx = (best_px + step * advance) % x_size
            else:
                ny = (best_py + step * advance) % y_size
            next_owner = key_owner[point_keys[nx * y_size + ny]]
        if next_owner != me:
            return next_owner
        # Defensive: only reachable with a corrupted geometry entry (a
        # healthy probe point lies outside our boundary).  Step one
        # zone toward the key in cyclic zone order — never away.
        return self._fallback_toward(key)

    def _fallback_toward(self, key: int) -> int:
        """Nearest zone toward ``key`` in cyclic zone-index order.

        The geometry entries are written where membership changes, so
        they are never stale: only a corrupted entry, whose probe point
        lands back inside this node's own zone, reaches this step.
        Returning the zone-ring successor there can point *away* from
        the target on a torus and livelock a walk between two such
        nodes; stepping toward the key's zone index (whichever cyclic
        direction is shorter) makes even the degenerate path converge.
        """
        overlay = self._overlay
        owners = overlay._owners
        count = len(owners)
        me_index = overlay._owner_index(self.id)
        key_index = overlay._zone_index_for_key(key) % count
        forward = (key_index - me_index) % count
        backward = (me_index - key_index) % count
        step = 1 if forward <= backward else -1
        return owners[(me_index + step) % count]

    def deliver(self, message: OverlayMessage) -> None:
        """Deliver a routed message, first logging the zone its origin
        stamped: the first pair of the path (the origin forwards first)."""
        cache = self._cache
        if message.path and cache.capacity:
            cache.log += message.path[:2]
            if len(cache.log) > FOLD_AT:
                cache.fold()
        self._overlay.do_deliver(self, message)

    def route_unicast(self, message: OverlayMessage, addressed: bool = False) -> None:
        key = message.key
        assert key is not None, "unicast message without a destination key"
        overlay = self._overlay
        me = self.id
        next_hop = None
        if addressed and overlay._key_owner[key] != me:
            # Only the node addressing the key asks its cache: forwarders
            # route greedily, so a stale zone costs one forward and
            # routing terminates.
            next_hop = self._cache.covering(key, overlay._size, overlay.is_alive)
        if next_hop is None:
            next_hop = self._next_hop(key)
            if next_hop is None:
                self.deliver(message)
                return
        # Not delivered here, so this node holds the only reference
        # (see OverlayMessage.forwarded_copy): forward it in place.
        message.hops += 1
        message.path += (me, overlay._geometry[me][0])
        overlay._network_transmit(me, next_hop, message)

    def continue_mcast(self, message: OverlayMessage) -> None:
        """One step of the paper's Fig. 4 m-cast, in key order.

        Deliver here if any target key is mine, then hand each other key
        to the pointer whose zone starts last at or before the key's
        clockwise distance: the owner of the zone after mine or of an
        express link ``id + 2^k`` but me.  Ranges cut at zone starts
        hold whole zones, so a node gets at most one branch per m-cast;
        and a pointer's zone either holds the key or lies strictly
        between me and it, so the distance falls on every hop.

        The groups are runs of the keys sorted by distance, each read
        off the key→owner table and the geometry entries.  Link ``k``'s
        zone starts at most ``2^k`` out and never before link
        ``k - 1``'s, so a group whose nearest key lies at distance ``d``
        reads links from ``d.bit_length() - 1`` on: the last whose zone
        starts at or before ``d`` (else the zone after mine) is its
        pointer, the next one's zone start (else the ring size) ends it.
        Branches leave farthest first; an envelope not delivered here
        carries the nearest, once the others are copied from it.
        """
        overlay = self._overlay
        key_owner = overlay._key_owner
        me = self.id
        targets = message.target_keys or frozenset()
        mine = {k for k in targets if key_owner[k] == me}
        if mine:
            self.deliver(message)
        rest = targets - mine
        if not rest:
            return
        geometry = overlay._geometry
        zone = geometry[me][0]
        size = overlay._size
        after = key_owner[(zone[0] + zone[1]) % size]  # the zone after mine
        distances = sorted([(key - me) % size for key in rest])
        count = len(distances)
        branches = []  # (position of its nearest key, pointer), in key order
        reach = 0  # the current group ends at this distance
        for position, distance in enumerate(distances):
            if distance >= reach:
                pointer = after
                reach = size
                link = 1 << (distance.bit_length() - 1)
                while link < size:
                    owner = key_owner[(me + link) % size]
                    link <<= 1
                    if owner == me:  # a link inside my own zone
                        continue
                    begins = (geometry[owner][0][0] - me) % size
                    if begins > distance:
                        reach = begins
                        break
                    pointer = owner
                branches.append((position, pointer))
        end = count
        for first, pointer in reversed(branches):
            if end - first < count:
                keys = frozenset([(me + d) % size for d in distances[first:end]])
            else:
                keys = rest  # one branch: its key set is exactly ``rest``
            end = first
            if first or mine:
                branch = message.forwarded_copy(me, keys, zone)
            else:
                branch = message
                branch.hops += 1
                branch.path += (me, zone)
                branch.target_keys = keys
            overlay._network_transmit(me, pointer, branch)


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
    """

    def __init__(
        self,
        sim: Simulator,
        keyspace: KeySpace,
        network: Network | None = None,
        state_transfer: StateTransferHook | None = None,
        *,
        express_links: bool = True,
        zone_jumps: bool = True,
        cache_capacity: int = 128,
    ) -> None:
        super().__init__(keyspace, sim, network or Network(sim), state_transfer)
        if cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0 (0 = off), got {cache_capacity}"
            )
        self._express_links = express_links
        self._zone_jumps = zone_jumps
        self._cache_capacity = cache_capacity
        self._size = keyspace.size
        # Parallel arrays: sorted zone start keys and their owner ids.
        # Zones are cyclic: zone i spans [starts[i], starts[i+1]) and the
        # last zone wraps around to starts[0], so removals never need a
        # special case and a zone may legitimately wrap the origin.
        self._starts: list[int] = []
        self._owners: list[int] = []
        # Owner -> (its zone's (start, length), the zone's cell
        # rectangles): what its node routes on, written by _place where
        # a zone moves and dropped on departure.  Its keys are the
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
        # _absorb); every routing step reads ownership from here.  The
        # zone arrays above stay the ground truth that membership code,
        # compute_cells/compute_express_links and the auditor use, and
        # the auditor checks this table and _geometry against them.
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
        return list(self._owners)

    def __len__(self) -> int:
        return len(self._owners)

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._geometry

    def zone_of(self, node_id: int) -> tuple[int, int]:
        """``(start, length)`` of the node's zone (may wrap the origin)."""
        index = self._owner_index(node_id)
        start = self._starts[index]
        if len(self._starts) == 1:
            return start, self._keyspace.size
        end = self._starts[(index + 1) % len(self._starts)]
        return start, (end - start) % self._keyspace.size

    def compute_cells(self, node_id: int) -> list[tuple[int, int]]:
        """Ground-truth Morton-cell decomposition of the node's zone.

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

        :meth:`CanNode._next_hop` and :meth:`CanNode.continue_mcast` read
        exactly these owners off the key→owner table; this is the
        reference the tests hold them to.
        """
        size = self._keyspace.size
        starts = self._starts
        owners = self._owners
        bisect_right = bisect.bisect_right
        return [
            owners[bisect_right(starts, (node_id + (1 << k)) % size) - 1]
            for k in range(self._keyspace.bits)
        ]

    def zone_geometry(
        self, node_id: int
    ) -> tuple[tuple[int, int], list[tuple[int, int, int, int]]]:
        """A copy of ``node_id``'s geometry entry: ``(zone, rects)``.

        Introspection for the auditor, which holds it to
        :meth:`zone_of` and the rectangles of :meth:`compute_cells`.
        """
        zone, rects = self._geometry[node_id]
        return zone, list(rects)

    def _place(self, node_id: int) -> None:
        """Write ``node_id``'s geometry entry from its current zone."""
        zone = self.zone_of(node_id)
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
        """The ``(zone start, owner)`` pairs in Morton-start order.

        Introspection for the auditor's tessellation check: the starts
        must be strictly increasing and every owner alive and covering
        its own id — together with the cyclic zone construction that
        guarantees the zones tile the key space exactly once.
        """
        return list(zip(self._starts, self._owners))

    def key_owner_table(self) -> list[int]:
        """A copy of the flat key→owner table routing reads.

        Introspection for the auditor, which holds it to the run-length
        expansion of :meth:`zone_table`.
        """
        return list(self._key_owner)

    def _owner_index(self, node_id: int) -> int:
        # Every live node covers its own id (the join cut guarantees
        # it), so its zone index is a bisect away.  The linear scan
        # only remains as a fallback for states that violate the
        # invariant (e.g. fault-injection tests corrupting the table).
        starts = self._starts
        if starts:
            index = bisect.bisect_right(starts, node_id) - 1
            if self._owners[index] == node_id:
                return index % len(starts)
        try:
            return self._owners.index(node_id)
        except ValueError:
            raise OverlayError(f"no live node with id {node_id}") from None

    def _zone_index_for_key(self, key: int) -> int:
        # bisect_right - 1 is -1 for keys before the first start: they
        # belong to the wrapped last zone, which Python indexing already
        # selects with -1.
        return bisect.bisect_right(self._starts, key) - 1

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
        if self._owners:
            raise OverlayError("overlay already built; use join()")
        first, *rest = ids
        self._keyspace.validate(first)
        self._local_filter = local
        try:
            # The bootstrap node's zone is the whole torus, anchored at
            # its own id (so it trivially covers itself).
            self._starts = [first]
            self._owners = [first]
            self._assign_keys(0, self._keyspace.size, first)
            self._place(first)
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
        index = self._zone_index_for_key(node_id)
        owner = self._owners[index]
        start, length = self.zone_of(owner)
        owner_offset = (owner - start) % size
        joiner_offset = (node_id - start) % size
        cut_offset = (owner_offset + joiner_offset) // 2 + 1
        cut = (start + cut_offset) % size
        if joiner_offset > owner_offset:
            joiner_start = cut
            joiner_length = length - cut_offset
            cut_owner = node_id  # boundary `cut` begins the joiner's half
        else:
            joiner_start = start
            joiner_length = cut_offset
            cut_owner = owner  # owner keeps the upper part from `cut`
        # Insert the new boundary; owners stay pairwise aligned with
        # starts because both lists insert at the same position.
        position = bisect.bisect_left(self._starts, cut)
        self._starts.insert(position, cut)
        self._owners.insert(position, cut_owner)
        if cut_owner is owner:
            # `start` kept its slot through the insert: one left of the
            # cut, or the last slot when the cut wrapped to the front.
            self._owners[position - 1] = node_id
        self._assign_keys(joiner_start, joiner_length, node_id)
        self._place(owner)
        self._place(node_id)
        self._register(node_id)
        if self._state_transfer is not None:
            left = (joiner_start - 1) % size
            right = (joiner_start + joiner_length - 1) % size
            self._state_transfer(owner, node_id, (left, right))

    def leave(self, node_id: int) -> None:
        """Graceful departure: the heir absorbs the zone, state first."""
        if len(self._owners) == 1:
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
        if len(self._owners) == 1:
            raise OverlayError("cannot remove the last node")
        self._owner_index(node_id)  # validates the node exists
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
        index = self._owner_index(node_id)
        heir = self._owners[(index - 1) % len(self._owners)]
        start, length = self.zone_of(node_id)
        del self._starts[index]
        del self._owners[index]
        self._assign_keys(start, length, heir)
        del self._geometry[node_id]
        self._place(heir)
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
        if not self._owners:
            raise OverlayError("empty overlay")
        return self._key_owner[self._keyspace.validate(key)]

    def successor_of(self, node_id: int) -> int:
        index = self._owner_index(node_id)
        return self._owners[(index + 1) % len(self._owners)]

    def predecessor_of(self, node_id: int) -> int:
        index = self._owner_index(node_id)
        return self._owners[(index - 1) % len(self._owners)]
