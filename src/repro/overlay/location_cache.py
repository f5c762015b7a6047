"""The location cache under the overlays: the ids a node was touched
by, each with the interval it owned when it stamped, folded on read,
and their view in clockwise order.

A hop that forwards a message stamps its id and the interval of the key
space it owns beside it in ``OverlayMessage.path`` — ``(pred, id]`` on a
ring (the stamp is the bare predecessor), the zone's ``(start, length)``
on CAN — and a node that learns from a message appends such flat ``id,
interval`` pairs to :attr:`LocationCache.log` itself (``log += path``:
no call on the per-message path).  What an overlay logs and which casts
read the cache is its policy; this is the mechanism.

:attr:`LocationCache.entries` is a plain insertion-ordered ``dict``,
least recently touched first, id -> the interval of its last touch
(None: named without one), current up to the last :meth:`fold`.  An LRU
after any touch sequence holds the ``capacity`` most recently touched
distinct ids in last-touch order, whether it evicted after every touch
or evicts once now, so a fold may span any touches with no cached read
between them: every reader here folds first, and a writer folds once its
log passes :data:`FOLD_AT`, which bounds the log of a node that never
reads.

The view (``dists``, ``ids``: the cached ids by clockwise distance from
the owner) serves a reader that binary-searches them, Chord's.  Writers
never maintain it: a fold or forget that changes which ids are cached
journals them, and :meth:`LocationCache.materialize` replays the journal
before a read.  A view never read, or whose journal outgrew a quarter
of it, is void (``journal`` None, both arrays the shared empty tuple,
which nothing can splice): the next read re-sorts.  CAN's cache never
builds one.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

#: Log length (slots: two per touch) past which a writer folds without
#: waiting for a read.  The bound only spreads a fold's fixed cost (call
#: counts within 0.3% of an unbounded log, bytes/node up from 128 slots).
FOLD_AT = 64

#: Both arrays of every void view.
_VOID: tuple = ()


class LocationCache:
    """One node's bounded LRU of other nodes and the intervals they
    stamped, and its distance-sorted view; ``owner`` is never cached,
    ``capacity`` 0 is off (the holder then logs nothing)."""

    __slots__ = ("owner", "capacity", "entries", "log", "journal", "dists", "ids")

    def __init__(self, owner: int, capacity: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.entries: dict[int, object] = {}
        self.log: list = []
        self.journal: list[int] | None = None  # void until first read
        self.dists: list[int] | tuple = _VOID
        self.ids: list[int] | tuple = _VOID

    def fold(self) -> None:
        """Apply the log to the entries and empty it.

        The log is replayed in order, a pair at a time: a cached id
        moves to the recent end (deleted and re-inserted; untouched
        entries keep their order ahead of it), a new id joins there,
        either way with the pair's interval (last touch wins), the owner
        is skipped; then the old end is cut to capacity.  The work is in
        the touches, never in the capacity, and no id costs a call.

        A live view journals the ids that entered and left (one that
        came and went is journaled twice: a no-op), and is voided once
        the journal outgrows a quarter of it: replaying an id costs what
        re-sorting ~2.5 rows does, and voiding bounds the appends spent
        on a view that may never be read again.  Why a journal at all:
        voiding on *every* change cuts calls per op at seed 1 (Intel
        Xeon, 2 vCPUs, Python 3.11) by 5.5% on ``steady-chord`` (334.98
        → 316.59) and 3.2% on ``churn-chord`` (332.75 → 321.97), every
        fingerprint equal, but ``steady-chord``'s ``host.run_s`` rises,
        median 1.41 → 1.57 s, slower in 6 of 6 alternating pairs (the
        journal's quartile spread: 0.09 s): one C-level ``sorted`` does
        more work than the splices it replaces.
        """
        entries = self.entries
        owner = self.owner
        fresh: dict[int, None] = {}  # a dict: an append would cost a call
        touches = iter(self.log)
        for node_id, interval in zip(touches, touches):
            if node_id in entries:
                del entries[node_id]
            elif node_id == owner:
                continue
            else:
                fresh[node_id] = None
            entries[node_id] = interval
        del self.log[:]
        if not fresh:
            return  # only LRU positions moved
        excess = len(entries) - self.capacity
        if excess > 0:
            evicted = list(islice(entries, excess))
            for node_id in evicted:
                del entries[node_id]
        else:
            evicted = _VOID
        journal = self.journal
        if journal is not None:
            journal += fresh
            journal += evicted
            if len(journal) > len(self.ids) >> 2:
                self.journal = None
                self.dists = self.ids = _VOID

    def forget(self, node_id: int) -> bool:
        """Drop a (discovered-dead) id; True if it was cached."""
        if self.log:
            self.fold()
        cached = node_id in self.entries
        if cached:
            del self.entries[node_id]
            if self.journal is not None:
                self.journal.append(node_id)
        return cached

    def materialize(self, size: int) -> None:
        """Bring the view current with the (folded) entries on a key
        space of ``size``.  Each journaled id is re-decided against the
        entries and spliced in or out (a repeated or settled id is a
        no-op, so the journal needs no dedup).  A void view is re-sorted;
        with nothing cached it keeps the void arrays, since any id that
        enters voids it again.
        """
        me = self.owner
        entries = self.entries
        journal = self.journal
        if journal is None:
            if entries:
                # Reuse the cache's int objects: an id recomputed from its
                # distance is a new int, about 1 KB more per steady-chord node.
                by_distance = {(nid - me) % size: nid for nid in entries}
                dists = sorted(by_distance)
                self.dists = dists
                self.ids = [by_distance[d] for d in dists]
            self.journal = []
            return
        dists = self.dists
        ids = self.ids
        count = len(ids)
        for node_id in journal:
            distance = (node_id - me) % size
            at = bisect_left(dists, distance)
            present = at < count and ids[at] == node_id
            if node_id in entries:
                if not present:
                    dists.insert(at, distance)
                    ids.insert(at, node_id)
                    count += 1
            elif present:
                del dists[at]
                del ids[at]
                count -= 1
        del journal[:]

    def covering(self, key: int, size: int, is_alive) -> int | None:
        """The cached id, live by ``is_alive(id)``, whose ``(start,
        length)`` interval covers ``key`` on a key space of ``size``,
        latest touch first; a dead id met on the way is forgotten.  An
        interval can be stale, so a hit is a hint: only the receiver's
        ownership test delivers.
        """
        if self.log:
            self.fold()
        for node_id, (start, length) in reversed(self.entries.items()):
            if (key - start) % size < length:
                if is_alive(node_id):
                    return node_id
                self.forget(node_id)
                return self.covering(key, size, is_alive)
        return None
