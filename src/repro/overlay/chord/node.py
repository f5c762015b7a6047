"""A single Chord node: location cache and routing decisions.

A node holds no membership-derived state.  Its ring neighbors are the
overlay's (the predecessor from ``overlay._pred``), and its fingers
are read off the overlay's sorted ring when a hop needs them: slot
``j`` is ``owner(id + 2**j)`` (§3.1.1), one bisect.  This models a
converged Chord (stabilization has quiesced), which matches the paper's
measurement setup where all joins complete before the workload starts.
What a node does hold is (optionally) a bounded LRU *location cache* of
other nodes it has learned about from message traffic
(:mod:`repro.overlay.location_cache`: the touch log, its fold, the LRU
and its distance-sorted view).

For a key at clockwise distance ``t``, ``j = t.bit_length() - 1`` is
the one slot a hop reads.  The next slot starts at ``2**(j+1) > t``, so
no finger lies between slot ``j``'s owner and the key: the owner either
owns the key or is the nearest finger before it, and the first finger
past the key, if the owner is not, is slot ``j + 1``'s.

Every pointer is an *owned arc*, and a key goes straight to the pointer
known to own it.  Greedy routing may never pass the key, so without
this every key ends with a walk through its owner's predecessor even
when the sender holds the owner.  Two certificates, no state of their
own:

- **Finger slot.**  Slot ``j`` owns every key from its start up to
  itself, so it owns the key whenever its distance is ``>= t``.
- **Stamped arc.**  Each hop of a routed message stamps its
  predecessor beside its id in the message's ``path`` and every receiver
  logs the whole path.  The first pointer past the key is the owner if
  it is live and cached with an arc ``(pred, id]`` covering the key.
  An arc can be stale; the receiver's ``covers`` test alone decides
  delivery, and the message it routes on carries its fresh stamp.

Unicast and the sequential walk (``_next_hop``) try both; m-cast
(``mcast_pointers``) tries them on whole groups of keys, the slot at
every node and the arc at the origin, the one node that reads its cache.

When no certificate holds, routing is closest-preceding over the
cache's view, its ids sorted by clockwise distance from this node:
``_next_hop`` binary-searches it for the rightmost entry at distance
``<= t``, walking left past dead entries but never below slot ``j``'s
owner.  Only unicast hops and m-cast origins read the view — an m-cast
forwarder routes on the ring alone, and at steady state a node takes
some fifteen m-cast receives per unicast hop — so ``receive`` (and
``learn``) only append to the cache's touch log, and the cache keeps
the view current itself, on read (the touch log's fold, its journal
and ``materialize`` are :mod:`repro.overlay.location_cache`'s).  A node
that never routes by cache never holds a view.

A unicast or sequential envelope that was *not* delivered locally is
forwarded in place; one handed to the application via ``do_deliver``
never is — the application (or a test) may retain it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable

from repro.overlay.api import OverlayMessage, OverlayNode, RoutingMode
from repro.overlay.location_cache import FOLD_AT, LocationCache
from repro.overlay.ring import arc_span

if TYPE_CHECKING:
    from repro.overlay.chord.overlay import ChordOverlay


class ChordNode(OverlayNode):
    """One overlay node with Chord routing state.

    Every receive logs the message's path into the location cache, but
    only the origin of an m-cast reads the cache (:meth:`start_mcast`).
    A forwarder that folded and read its own cache at every step too
    saved few messages for many calls: on the ledger's ``steady-chord``
    (seed 1) msgs/op went 16.00 → 15.41 and calls/op 334.98 → 484.15.

    Args:
        node_id: This node's position on the identifier circle.
        overlay: The owning :class:`~repro.overlay.chord.ChordOverlay`.
        cache_capacity: Maximum entries in the location cache; 0
            disables caching entirely.
    """

    def __init__(
        self, node_id: int, overlay: "ChordOverlay", cache_capacity: int = 128
    ) -> None:
        super().__init__(node_id, overlay)
        # Node id -> the predecessor its last touch carried (its owned
        # arc is ``(pred, id]``), None when named without one.
        self._cache = LocationCache(node_id, cache_capacity)
        self._size = overlay.keyspace.size  # ring size never changes

    @property
    def successor(self) -> int:
        """Id of the next live node clockwise on the ring."""
        return self._overlay.successor_of(self.id)

    # -- location cache ---------------------------------------------------

    def learn(self, node_ids: Iterable[int]) -> None:
        """Log recently seen node ids as bare pointers (an owned arc
        comes only from the stamp its owner put on a message: see
        :meth:`receive`)."""
        cache = self._cache
        if cache.capacity:
            log = cache.log
            for node_id in node_ids:
                log += (node_id, None)
            if len(log) > FOLD_AT:
                cache.fold()

    def forget(self, node_id: int) -> None:
        """Evict a (discovered-dead) node from the location cache."""
        self._cache.forget(node_id)

    def cached_ids(self) -> list[int]:
        """Current location-cache contents (least recent first)."""
        cache = self._cache
        if cache.log:
            cache.fold()
        return list(cache.entries)

    # -- routing ----------------------------------------------------------

    owned_span = arc_span

    def receive(self, message: OverlayMessage) -> None:
        """Network upcall: continue routing or deliver ``message``."""
        mode = message.mode
        direct = mode is RoutingMode.UNICAST and message.key is None
        # learn(), inline: every receive logs what the message names,
        # and the cache pays for it when it is next read.
        # A routed message was started with an empty path and every hop
        # stamped its arc, the origin first, so the path is the pairs.
        # A direct one is a forwarded_copy: it names the sender bare,
        # last in the path, and the origin.
        cache = self._cache
        if cache.capacity:
            log = cache.log
            if direct:
                if message.path:
                    log += (message.path[-1], None)
                log += (message.origin, None)
            else:
                log += message.path
            if len(log) > FOLD_AT:
                cache.fold()
        if mode is RoutingMode.MCAST:
            self.continue_mcast(message)
        elif mode is RoutingMode.SEQUENTIAL:
            self._overlay.continue_sequential(self, message)
        elif direct:
            # Direct one-hop message (neighbor sends: state transfer,
            # replication, COLLECT aggregation) — no further routing.
            self._overlay.do_deliver(self, message)
        else:
            self.route_unicast(message)

    def route_unicast(self, message: OverlayMessage, addressed: bool = False) -> None:
        """Greedy Chord routing of a unicast message toward its key.

        Forwarded envelopes are reused in place: the overlay hands this
        node exclusive ownership of an in-flight message, so advancing
        ``hops``/``path`` on the same object replaces one allocation
        per hop.  Each hop stamps the arc it owns beside its id.

        ``addressed`` marks the node that addressed the key: ``send``'s
        origin, or the walk's node that picked it.  Any other node is a
        forwarder, and one that finds the key more than half the ring
        ahead was overshot (see :meth:`mcast_pointers`).
        """
        key = message.key
        assert key is not None, "unicast message without a destination key"
        me = self.id
        predecessor = self._overlay._pred[me]
        # covers(key), inline: the predecessor is needed for the stamp.
        if (
            predecessor == me
            or 0 < (key - predecessor) % self._size <= (me - predecessor) % self._size
        ):
            self._overlay.do_deliver(self, message)
            return
        if not addressed and (key - me) % self._size > self._size >> 1:
            next_hop = predecessor  # overshot
        else:
            next_hop = self._next_hop(key)
        message.hops += 1
        message.path += (me, predecessor)
        self._overlay._network_transmit(me, next_hop, message)

    def _next_hop(self, key: int) -> int:
        """The owner of ``key`` when a pointer certifies it, else the
        closest live node preceding-or-equal to ``key`` that we know.

        The two certificates of the module docstring, in order: slot
        ``j``'s owner, read off the ring, then the first cache entry
        past the key if it is live, the arc it last stamped covers the
        key, and no finger lies before it — only slot ``j + 1``'s owner
        can, and it is read only then.

        Otherwise binary-searches the cache view for the rightmost entry
        at clockwise distance ``<= distance(self, key)`` and walks left
        past dead entries down to slot ``j``'s owner, the nearest finger
        before the key.  Dead entries met on the way are evicted *after*
        the scan (never while the view is being read).  Falls back to
        the successor when nothing useful is known, which always makes
        progress on the ring.
        """
        overlay = self._overlay
        ring = overlay._ring
        nodes = len(ring)
        me = self.id
        size = self._size
        target = (key - me) % size
        top = 1 << target.bit_length()  # slot j + 1 starts here
        finger = ring[bisect_left(ring, (me + (top >> 1)) % size) % nodes]
        floor = (finger - me) % size
        if 0 < target <= floor:
            return finger
        if target and not floor:
            # No node from slot j's start on: the key is ours, and the
            # farthest finger (the last slot the predecessor reaches)
            # precedes it.
            far = (overlay._pred[me] - me) % size
            if far:
                start = me + (1 << (far.bit_length() - 1))
                finger = ring[bisect_left(ring, start % size) % nodes]
                floor = (finger - me) % size
        cache = self._cache
        if cache.log:
            cache.fold()
        journal = cache.journal
        if journal is None or journal:
            cache.materialize(size)
        dists, ids, arcs = cache.dists, cache.ids, cache.entries
        members = overlay._pred
        dead: list[int] | None = None
        index = bisect_right(dists, target) - 1
        if index + 1 < len(ids):
            candidate = ids[index + 1]
            arc = arcs[candidate]
            if arc is not None and 0 < (key - arc) % size <= (candidate - arc) % size:
                # The first pointer past the key is a finger instead iff
                # slot j + 1 starts before the entry and its owner does.
                past = dists[index + 1]
                nearer = me
                if past > top:
                    nearer = ring[bisect_left(ring, (me + top) % size) % nodes]
                if not 0 < (nearer - me) % size < past:
                    if candidate in members:
                        return candidate
                    dead = [candidate]
        best = finger if floor else self.successor
        while index >= 0 and dists[index] > floor:
            candidate = ids[index]
            if candidate in members:
                best = candidate
                break
            if dead is None:
                dead = [candidate]
            else:
                dead.append(candidate)
            index -= 1
        if dead:
            for node_id in dead:
                cache.forget(node_id)
        return best

    # -- m-cast (Fig. 4) -------------------------------------------------

    def start_mcast(self, message: OverlayMessage) -> None:
        """Start an m-cast here: the one node of an m-cast that hands the
        step its cache as ``arcs`` (with nothing cached, fingers alone)."""
        cache = self._cache
        if cache.log:
            cache.fold()
        self.continue_mcast(message, cache.entries or None)

    def mcast_pointers(
        self, message: OverlayMessage, runs: list[int], arcs
    ) -> tuple[int, int, int, dict[int, int]]:
        """Chord's m-cast pointer rule, stamped with the predecessor:
        mine are the key at distance 0 and the keys past the predecessor.

        A group is decided at its nearest key, at distance ``d`` with
        ``j = d.bit_length() - 1``: its pointer is slot ``j``'s owner if
        that certifies the key, else the finger strictly before the key,
        and slot ``j + 1``'s owner, the first finger past the key, ends
        it.  At the origin (``arcs``: its cache) whichever of each pair
        the cache view holds nearer the key stands in, and the pointer
        past the key takes the group when its stamped arc covers the key
        (:meth:`_next_hop`); a dead cached pointer met at a boundary is
        forgotten and the split starts over.  A forwarder reads the ring
        alone.  Overshot: a fresh uncertified group at ``2**j <= d``
        goes to a pointer at ``r >= 2**j``, landing ``d - r < 2**j <=
        size / 2`` short, so a forwarder whose nearest key is farther
        than half the ring hands them all to its predecessor.
        """
        size = self._size
        me = self.id
        overlay = self._overlay
        predecessor = overlay._pred[me]
        # Mine: distance 0, and past the predecessor (all on a sole node).
        hi = (predecessor - me) % size + 1
        first = 0  # the run holding the nearest key past distance 0
        while runs[first + 1] <= 1:
            first += 2
        nearest = runs[first] or 1
        if nearest >= hi:
            return predecessor, 1, hi, {}
        ring = overlay._ring
        nodes = len(ring)
        behind = size >> 1 if message.path else size  # the origin: no limit
        if nearest > behind:  # overshot: all of it, one step back
            return predecessor, 1, hi, {predecessor: nearest}
        if arcs is None and (
            runs[first + 1] == nearest + 1 or nearest + 1 == hi
        ) and runs[first + 2] >= hi:
            # One key to send: slot j, no grouping.
            start = me + (1 << (nearest.bit_length() - 1))
            pointer = ring[bisect_left(ring, start % size) % nodes]
            return predecessor, 1, hi, {pointer: nearest}
        # Pointer -> distance of its branch's first key.  Pointers only
        # move clockwise as the keys do, so each branch is one run of
        # groups.
        branches: dict[int, int] = {}
        while True:  # again after forgetting a dead cached pointer
            if arcs is not None:  # as _next_hop reads it
                members = overlay._pred
                cache = self._cache
                journal = cache.journal
                if journal is None or journal:
                    cache.materialize(size)
                dists, ids = cache.dists, cache.ids
                cached = len(dists)
            at = first
            distance = nearest  # the nearest key of the next group
            pointer = -1
            while True:
                top = 1 << distance.bit_length()
                owner = ring[bisect_left(ring, (me + (top >> 1)) % size) % nodes]
                reach = (owner - me) % size  # the group ends at this distance
                if reach < distance:
                    # Slot j's owner precedes the key, and slot j + 1's
                    # is the first finger past it (this node: none).
                    floor = reach
                    past = ring[bisect_left(ring, (me + top) % size) % nodes]
                    reach = (past - me - 1) % size + 1
                    if arcs is not None:  # the cache's pointers too
                        index = bisect_left(dists, distance)
                        if index and dists[index - 1] > floor:
                            owner = ids[index - 1]
                        if index < cached and dists[index] < reach:
                            past = ids[index]
                            reach = dists[index]
                        elif reach == size:
                            past = owner
                        if owner not in members or past not in members:
                            break
                        arc = arcs[past] if past in arcs else None
                        if arc is not None and (
                            0 < (me + distance - arc) % size <= (past - arc) % size
                        ):
                            owner = past
                if owner != pointer:
                    pointer = owner
                    branches[owner] = distance
                distance = reach + 1  # the nearest key past the group
                while runs[at + 1] <= distance:
                    at += 2
                if runs[at] > distance:
                    distance = runs[at]
                if distance >= hi:
                    return predecessor, 1, hi, branches
            cache.forget(past if owner in members else owner)
            branches.clear()
