"""The per-key Fig. 4 m-cast step that key runs replaced, kept as a
reference.

Each step sorted its targets' clockwise distances, one per key, and
each node's rule returned ``{pointer: first position}`` over that list;
each branch was built as the frozenset of its keys.  The step and the
three rules (the textbook rule over ``pointers()``, Chord's and CAN's)
are reproduced here as they were, so a test can run an m-cast under
them (:func:`install`) and hold the runs step's sends to theirs: the
same pointers, key sets, order, hops and stamps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any

from repro.errors import OverlayError
from repro.overlay.api import OverlayMessage, OverlayNode
from repro.overlay.can.node import CanNode
from repro.overlay.chord import ChordNode


def textbook_pointers(
    self, message: OverlayMessage, distances: list[int], count: int, arcs
) -> tuple[Any, int, int, dict[int, int]]:
    span = self.owned_span()
    size = self._overlay._key_limit
    lo = 0 if distances[0] else 1
    hi = bisect_right(distances, size - span[1])
    branches: dict[int, int] = {}
    if lo == hi:
        return span, lo, hi, branches
    me = self.id
    ids, certified = self.pointers()
    by_distance = {(pointer - me) % size: pointer for pointer in ids}
    reach = sorted(by_distance)
    last = reach[certified - 1] if certified else 0
    links = len(reach)  # 0: no live pointer, so the rest goes nowhere
    pointer = None
    position = lo
    while position < hi and links:
        distance = distances[position]
        at = bisect_left(reach, distance)
        if distance > last:  # the farthest before it, else the nearest
            if at:
                at -= 1
            end = reach[at + 1] if at + 1 < links else size
        else:  # the certified successor at or past it owns it
            end = reach[at]
        if by_distance[reach[at]] != pointer:
            pointer = by_distance[reach[at]]
            branches[pointer] = position
        position = bisect_right(distances, end, position, hi)
    return span, lo, hi, branches


def chord_pointers(
    self, message: OverlayMessage, distances: list[int], count: int, arcs
) -> tuple[int, int, int, dict[int, int]]:
    size = self._size
    me = self.id
    overlay = self._overlay
    predecessor = overlay._pred[me]
    lo = 0 if distances[0] else 1
    hi = count
    far = (predecessor - me) % size  # 0 on a sole node: all is mine
    if distances[-1] > far:  # the keys past the predecessor are mine
        hi = lo if distances[lo] > far else bisect_right(distances, far)
    if lo == hi:
        return predecessor, lo, hi, {}
    ring = overlay._ring
    nodes = len(ring)
    behind = size >> 1 if message.path else size  # the origin: no limit
    distance = distances[lo]
    if distance > behind:  # overshot: all of it, one step back
        return predecessor, lo, hi, {predecessor: lo}
    if hi - lo == 1 and arcs is None:  # slot j, no grouping
        start = me + (1 << (distance.bit_length() - 1))
        pointer = ring[bisect_left(ring, start % size) % nodes]
        return predecessor, lo, hi, {pointer: lo}
    # Pointer -> position of its branch's first key.  Pointers only
    # move clockwise as the keys do, so each branch is one run.
    branches: dict[int, int] = {}
    while not branches:
        if arcs is not None:  # as _next_hop reads it
            members = overlay._pred
            cache = self._cache
            journal = cache.journal
            if journal is None or journal:
                cache.materialize(size)
            dists, ids = cache.dists, cache.ids
            cached = len(dists)
        reach = 0  # the current group ends at this distance
        pointer = -1
        for position, distance in enumerate(distances[lo:hi], lo):
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
    return predecessor, lo, hi, branches


def can_pointers(
    self, message: OverlayMessage, distances: list[int], count: int, arcs
) -> tuple[tuple[int, int], int, int, dict[int, int]]:
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


def per_key_step(self, message: OverlayMessage, arcs: dict | None = None) -> None:
    overlay = self._overlay
    me = self.id
    size = overlay._key_limit
    targets = message.target_keys
    count = len(targets)
    if count == 1:
        for key in targets:
            distances = [(key - me) % size]
    else:
        distances = sorted([(key - me) % size for key in targets])
    stamp, lo, hi, branches = self.mcast_pointers(message, distances, count, arcs)
    mine = lo or hi < count
    if mine:
        self.deliver(message)
    if not branches:
        return
    hops = message.hops + 1
    if hops > size:
        raise OverlayError(
            f"m-cast of request {message.request_id} passed {size} hops"
            f" at node {me}: its pointer rule hands keys back"
        )
    path = message.path + (me, stamp)
    end = hi
    for pointer in reversed(branches):  # each ends where the next began
        first = branches[pointer]
        if end - first == count:
            keys = targets  # one branch of every key: the same set
        else:
            keys = frozenset([(me + d) % size for d in distances[first:end]])
        end = first
        if first > lo or mine:
            branch = overlay._prepared(
                message, message.key, keys, message.mode, hops, path
            )
        else:
            branch = message
            branch.hops = hops
            branch.path = path
            branch.target_keys = keys
        overlay._network_transmit(me, pointer, branch)


def install(monkeypatch) -> None:
    """Run every overlay's m-cast on the per-key step and rules."""
    monkeypatch.setattr(OverlayNode, "continue_mcast", per_key_step)
    monkeypatch.setattr(OverlayNode, "mcast_pointers", textbook_pointers)
    monkeypatch.setattr(ChordNode, "mcast_pointers", chord_pointers)
    monkeypatch.setattr(CanNode, "mcast_pointers", can_pointers)
