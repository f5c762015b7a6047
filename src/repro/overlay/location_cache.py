"""The location cache under the overlays: the ids a node was touched
by, each with the interval it owned when it stamped, folded on read.

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
"""

from __future__ import annotations

from itertools import islice

#: Log length (slots: two per touch) past which a writer folds without
#: waiting for a read.  The bound only spreads a fold's fixed cost (call
#: counts within 0.3% of an unbounded log, bytes/node up from 128 slots).
FOLD_AT = 64


class LocationCache:
    """One node's bounded LRU of other nodes and the intervals they
    stamped; ``owner`` is never cached, ``capacity`` 0 is off (the
    holder then logs nothing)."""

    __slots__ = ("owner", "capacity", "entries", "log")

    def __init__(self, owner: int, capacity: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.entries: dict[int, object] = {}
        self.log: list = []

    def fold(self):
        """Apply the log to the entries, empty it, and return
        ``(entered, left)`` for a caller that keeps a view of the ids.

        The log is replayed in order, a pair at a time: a cached id
        moves to the recent end (deleted and re-inserted; untouched
        entries keep their order ahead of it), a new id joins there,
        either way with the pair's interval (last touch wins), the owner
        is skipped; then the old end is cut to capacity.  The work is in
        the touches, never in the capacity, and no id costs a call.  An
        id that came and went in one fold is in both results.
        """
        entries = self.entries
        owner = self.owner
        fresh: dict[int, None] = {}
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
            return (), ()  # only LRU positions moved
        evicted: list[int] = []
        excess = len(entries) - self.capacity
        if excess > 0:
            evicted = list(islice(entries, excess))
            for node_id in evicted:
                del entries[node_id]
        return fresh, evicted

    def forget(self, node_id: int) -> bool:
        """Drop a (discovered-dead) id; True if it was cached."""
        if self.log:
            self.fold()
        cached = node_id in self.entries
        if cached:
            del self.entries[node_id]
        return cached

    def covering(self, key: int, size: int, is_alive) -> int | None:
        """The cached id, live by ``is_alive(id)``, whose ``(start,
        length)`` interval covers ``key`` on a key space of ``size``,
        latest touch first; a dead id met on the way is forgotten.  An
        interval can be stale, so a hit is a hint: only the receiver's
        ownership test delivers.
        """
        if self.log:
            self.fold()
        entries = self.entries
        for node_id, (start, length) in reversed(entries.items()):
            if (key - start) % size < length:
                if is_alive(node_id):
                    return node_id
                del entries[node_id]
                return self.covering(key, size, is_alive)
        return None
