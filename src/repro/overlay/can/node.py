"""A single CAN node: greedy unicast and key-order m-cast over its zone.

A node holds no membership-derived state: its zone, the zone's cell
rectangles and every ownership question are read off the overlay's
tables (:mod:`repro.overlay.can.overlay`) at the hop that needs them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.overlay.api import OverlayMessage, OverlayNode
from repro.overlay.location_cache import FOLD_AT, LocationCache

if TYPE_CHECKING:
    from repro.overlay.can.overlay import CanOverlay


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
    Its express links and m-cast pointers are slots of the overlay's
    key→owner table, current at every read.
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

        Runs at every hop of every unicast, so the step never leaves
        this frame: ownership is an index into the overlay's key→owner
        table, a zone and its rectangles are a geometry entry, and the
        torus arithmetic is inline
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
            # piece of its zone), and only then is the owner's zone
            # read: [lo, hi), cut at the origin to the piece holding
            # the probe key.
            lo, hi = overlay._geometry[next_owner][0]
            hi += lo
            size = len(key_owner)
            if hi > size:  # the zone wraps the origin
                if probe_key < lo:
                    lo, hi = 0, hi - size
                else:
                    hi = size
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
        """Nearest zone toward ``key`` in cyclic zone order.

        The geometry entries are written where membership changes, so
        they are never stale: only a corrupted entry, whose probe point
        lands back inside this node's own zone, reaches this step.
        Returning the zone-ring successor there can point *away* from
        the target on a torus and livelock a walk between two such
        nodes; stepping toward the key's zone (whichever cyclic
        direction is shorter, in ``zone_table()`` order) makes even the
        degenerate path converge.
        """
        table = self._overlay.zone_table()
        starts = [start for start, _ in table]
        owners = [owner for _, owner in table]
        count = len(owners)
        me_index = owners.index(self.id)
        # Index -1 is the last zone: it wraps over the keys below the
        # first start.
        key_index = (bisect_right(starts, key) - 1) % count
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

    def mcast_pointers(
        self, message: OverlayMessage, distances: list[int], count: int, arcs
    ) -> tuple[tuple[int, int], int, int, dict[int, int]]:
        """CAN's m-cast pointer rule, in key order: the owner of the zone
        after mine and of each express link ``id + 2^k`` but me; the
        stamp is my zone.  Mine are the keys short of my zone's end and
        from its start on.

        Link ``k``'s zone starts at most ``2^k`` out and never before
        link ``k - 1``'s, so a group whose nearest key lies at distance
        ``d`` reads links from ``d.bit_length() - 1`` on: the last whose
        zone starts at or before ``d`` (else the zone after mine) is its
        pointer, the next one's zone start (else the ring size) ends it.
        """
        overlay = self._overlay
        key_owner = overlay._key_owner
        geometry = overlay._geometry
        me = self.id
        size = overlay._size
        zone = geometry[me][0]
        start, length = zone
        ends = (start + length - me) % size or size  # my zone's end
        starts = (start - me) % size or size  # and its start
        lo = 0
        if distances[0] < ends:
            lo = count if distances[-1] < ends else bisect_left(distances, ends)
        hi = count
        if distances[-1] >= starts:
            hi = lo if distances[lo] >= starts else bisect_left(distances, starts)
        branches: dict[int, int] = {}
        if lo == hi:
            return zone, lo, hi, branches
        after = key_owner[(start + length) % size]  # the zone after mine
        reach = 0  # the current group ends at this distance
        for position, distance in enumerate(distances[lo:hi], lo):
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
                branches[pointer] = position
        return zone, lo, hi, branches
