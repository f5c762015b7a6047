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

Unicast and the sequential walk (``_next_hop``) try both; m-cast tries
them on whole groups of keys (the keys between two consecutive pointers
go to the pointer past them iff it is certified for the group's nearest
key — see ``continue_mcast`` for why per key is wrong), the slot at
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

Outbound fan-out reuses message envelopes: an envelope that was *not*
delivered locally is forwarded in place (unicast, sequential, and one
m-cast branch), extra m-cast branches are fresh envelopes, and all
branches of one fan-out share a single path tuple.  Envelopes handed to
the application via ``do_deliver`` are never forwarded in place — the
application (or a test) may retain them.
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
        ahead was overshot (see ``continue_mcast``).
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
        """Entry point of the m-cast algorithm at the sending node, the
        one node of an m-cast that reads its location cache (a forwarder
        gets no ``arcs``); with nothing cached it, too, reads fingers."""
        cache = self._cache
        if cache.log:
            cache.fold()
        self.continue_mcast(message, cache.entries or None)

    def continue_mcast(self, message: OverlayMessage, arcs: dict | None = None) -> None:
        """One step of the recursive pointer-based multicast.

        Deliver locally if any target key falls in ``(pred, self]``
        (at most one delivery per node, per the paper's guarantee),
        then partition the remaining keys among the pointers: the
        fingers, or at the origin (the node :meth:`start_mcast` hands
        its cached ``arcs``) the fingers and the cache view.  The keys between two
        consecutive pointers form one group, and a group travels whole:
        to the pointer past it when that pointer is certified for the
        group's *nearest* key (see :meth:`_next_hop`; only the origin
        has arcs to read) — it then owns every key of the group — and
        otherwise to the pointer **strictly preceding** it.  Deciding
        per key would be wrong: of two keys owned by the same finger,
        the one before the slot's start is not certified, so the finger
        would receive one key directly and the other through the
        preceding finger's chain, and deliver twice.  For the same
        reason a key equal to (or covered by) a pointer must travel with
        the branch of the preceding pointer unless its whole group
        jumps.  Every transmission lands directly on a pointer, so each
        is one hop, and a forwarder reads the ring only: it neither folds
        its touch log nor builds a cache view.

        A group boundary is always a *live* pointer (a dead cached id
        met at one is forgotten and the partition starts over), and no
        live node lies inside another's arc, so the keys a node owns sit
        between the same two boundaries and travel in one branch: one
        delivery per node even when the arc that sent them is stale.

        A stale arc, or a join racing the message, *overshoots*: the
        receiver gets keys owned by nodes behind it.  Fresh pointers
        never do: a certified group is delivered where it lands, and an
        uncertified one at distance ``d``, ``2**j <= d < 2**(j+1)``,
        goes to a pointer no nearer than slot ``j``'s owner, at ``r >=
        2**j``, landing ``d - r < 2**j <= size / 2`` short of its key.
        So a forwarder whose nearest remaining key is more than half the
        ring ahead was overshot, and hands the *whole* message to its
        predecessor: one hop per node that joined inside the arc, not a
        trip round the ring.  (Splitting by distance there delivers
        twice when one node's arc straddles the half-way point.)

        The keys are sorted by clockwise distance once, so the groups
        are runs of that order, each decided at its first key, at
        distance ``d`` with ``j = d.bit_length() - 1``: slot ``j``'s
        owner is the group's pointer when it certifies the key and
        otherwise the finger strictly preceding it, and then slot ``j +
        1``'s owner, the first finger past the key, ends the group (at
        the origin, whichever of each pair the cache view holds nearer
        the key).  Consecutive groups bound for the same pointer merge
        into one branch.
        """
        size = self._size
        me = self.id
        targets = message.target_keys or frozenset()
        predecessor = self._overlay._pred[me]
        # Inline in_open_closed(k, pred, me): runs per target key.  Most
        # forwarders own none of their keys, so a plain loop looks for
        # the first owned one and the set is built only then.
        mine = None
        if predecessor == me:  # sole node: every key is ours
            mine = set(targets)
        else:
            span = (me - predecessor) % size
            for key in targets:
                if 0 < (key - predecessor) % size <= span:
                    mine = {k for k in targets if 0 < (k - predecessor) % size <= span}
                    break
        if mine:
            self._overlay.do_deliver(self, message)
            rest = targets - mine
        else:
            rest = targets  # nothing delivered: the set is unchanged
        if not rest:
            return
        ring = self._overlay._ring
        nodes = len(ring)
        # The origin (empty path) addresses the whole ring on purpose.
        behind = size >> 1 if message.path else size
        hops = message.hops + 1
        path = message.path + (me, predecessor)
        transmit = self._overlay._network_transmit
        count = len(rest)
        # Pointer -> index of its branch's first key in ``distances``.
        # Pointers only move clockwise as the keys do, so each branch
        # is one run of the sorted order.
        branches: dict[int, int] = {}
        if count == 1 and arcs is None:
            # Single remaining key: one branch, no grouping machinery.
            (key,) = rest
            distance = (key - me) % size
            if distance > behind:
                pointer = predecessor  # overshot: one step back
            else:  # slot j: the key's owner, or the finger before it
                start = me + (1 << (distance.bit_length() - 1))
                pointer = ring[bisect_left(ring, start % size) % nodes]
            branches[pointer] = 0
        else:
            distances = sorted([(key - me) % size for key in rest])
            if distances[0] > behind:
                branches[predecessor] = 0  # overshot: all of it, one step back
        while not branches:
            if arcs is not None:  # as _next_hop reads it
                members = self._overlay._pred
                cache = self._cache
                journal = cache.journal
                if journal is None or journal:
                    cache.materialize(size)
                dists, ids = cache.dists, cache.ids
                cached = len(dists)
            reach = 0  # the current group ends at this distance
            pointer = -1
            for position, distance in enumerate(distances):
                if distance > reach:  # nearest key of the next group
                    top = 1 << distance.bit_length()
                    owner = ring[bisect_left(ring, (me + (top >> 1)) % size) % nodes]
                    reach = (owner - me) % size
                    if reach < distance:
                        # Slot j's owner precedes the key, and slot j + 1's
                        # is the first finger past it (this node: none).
                        floor = reach
                        past = ring[bisect_left(ring, (me + top) % size) % nodes]
                        reach = (past - me - 1) % size + 1
                        if arcs is not None:  # the cache's pointers too
                            at = bisect_left(dists, distance)
                            if at and dists[at - 1] > floor:
                                owner = ids[at - 1]
                            if at < cached and dists[at] < reach:
                                past = ids[at]
                                reach = dists[at]
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
                        branches[owner] = position
            else:
                break
            cache.forget(past if owner in members else owner)
            branches.clear()
        # The undelivered envelope carries one branch itself; the rest
        # are fresh (or pooled) copies sharing the same path tuple.
        reusable = None if mine else message
        end = count
        for pointer in reversed(branches):  # each run ends where the next began
            first = branches[pointer]
            if end - first == count:
                # One branch means its key set is exactly ``rest`` —
                # reuse that frozenset instead of building its equal.
                branch_keys = rest
            else:
                branch_keys = frozenset(
                    [(me + distance) % size for distance in distances[first:end]]
                )
            end = first
            if reusable is not None:
                branch = reusable
                branch.hops = hops
                branch.path = path
                branch.target_keys = branch_keys
                reusable = None
            else:
                branch = self._overlay._prepared(
                    message, message.key, branch_keys, message.mode, hops, path
                )
            transmit(me, pointer, branch)
