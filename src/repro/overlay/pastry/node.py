"""A Pastry-style node: leaf set + per-bit prefix routing table.

Routing works digit by digit (here: bit by bit).  To route toward key
``k``, a node forwards to its routing-table entry for the first bit
where its own id differs from ``k`` — that entry shares a strictly
longer prefix with ``k``, so every hop makes prefix progress and
routing terminates in at most ``m`` hops.  Once ``k`` falls within the
leaf set's ring span, the message jumps directly to the leaf covering
it.  Both structures are read off the overlay's ring, again whenever
the ring has changed since the last read.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.overlay.api import CastMode, OverlayMessage

if TYPE_CHECKING:
    from repro.overlay.pastry.overlay import PastryOverlay


def common_prefix_length(a: int, b: int, bits: int) -> int:
    """Number of leading bits shared by two m-bit identifiers."""
    difference = a ^ b
    if difference == 0:
        return bits
    return bits - difference.bit_length()


class PastryNode:
    """One overlay node with prefix-routing state.

    Routing state (leaf set + routing table) is memoized per ring
    version, modelling a converged overlay (same approach as the Chord
    node's fingers).  A stale node recomputes both from the ring on its
    next use, and a joiner starts cold.
    """

    def __init__(self, node_id: int, overlay: "PastryOverlay") -> None:
        self.id = node_id
        self._overlay = overlay
        self._leaf_set: list[int] = []
        self._table: list[int | None] = []
        self._version = -1

    # -- routing state -----------------------------------------------------

    def _refresh(self) -> None:
        """Catch the leaf set + routing table up to the ring version."""
        version = self._overlay.ring_version
        if self._version != version:
            self._rebuild(version)

    def _rebuild(self, version: int) -> None:
        """Recompute leaf set and table; counted in ``pastry.table_rebuilds``."""
        self._leaf_set = self._overlay.compute_leaf_set(self.id)
        self._table = self._overlay.compute_routing_table(self.id)
        self._version = version
        self._overlay.table_rebuilds.value += 1

    def leaf_set(self) -> list[int]:
        """The nearest ring neighbors on both sides (ring order)."""
        self._refresh()
        return self._leaf_set

    def routing_table(self) -> list[int | None]:
        """Entry ``i``: a live node sharing ``i`` leading bits with this
        node and differing at bit ``i`` (None if that half-space between
        prefixes is empty)."""
        self._refresh()
        return self._table

    def audit_state(self) -> tuple[int, list[int], list[int | None]]:
        """Raw routing state for the auditor: ``(version, leaves, table)``.

        Non-mutating by contract (no :meth:`_refresh`): the auditor
        must see the leaf set and prefix rows exactly as routing left
        them.  Version -1 means cold (never materialized).
        """
        return self._version, list(self._leaf_set), list(self._table)

    def covers(self, key: int) -> bool:
        """True if this node covers ``key`` (successor convention)."""
        return self._overlay.covers(self.id, key)

    # -- message handling ----------------------------------------------------

    def receive(self, message: OverlayMessage) -> None:
        """Network upcall: continue routing or deliver."""
        if message.mode is CastMode.MCAST:
            self.continue_mcast(message)
        elif message.mode is CastMode.SEQUENTIAL:
            self.continue_sequential(message)
        elif message.key is None:
            self._overlay.do_deliver(self, message)
        else:
            self.route_unicast(message)

    def _next_hop(self, key: int) -> int | None:
        """The prefix-routing next hop toward ``key`` (None = deliver here).

        1. If we cover the key, deliver.
        2. If the key lies within the leaf set's ring span, jump to the
           covering leaf directly.
        3. Otherwise forward to the routing-table entry for the first
           differing bit; if that slot is empty, fall back to the known
           node (leaf or table entry) whose id shares the longest
           prefix with the key, provided it makes prefix progress —
           and to the successor leaf as a last resort (ring progress).
        """
        if self.covers(key):
            return None
        self._refresh()
        keyspace = self._overlay.keyspace
        leaves = self._leaf_set
        if leaves:
            # The leaf set spans the ring interval (first_leaf_pred, last_leaf];
            # inside it, the covering node is one of the leaves (or us).
            span_left = self._overlay.predecessor_of(leaves[0])
            span_right = leaves[-1]
            if keyspace.in_open_closed(key, span_left, span_right):
                for leaf in leaves:
                    if self._overlay.covers(leaf, key):
                        return leaf
        bits = keyspace.bits
        shared = common_prefix_length(self.id, key, bits)
        entry = self._table[shared] if shared < bits else None
        if entry is not None:
            return entry
        # Rare fallback: the half-space for the differing bit holds no
        # node.  Pick the best prefix match among everything we know.
        best: int | None = None
        best_shared = shared
        for candidate in list(self._table) + leaves:
            if candidate is None or candidate == self.id:
                continue
            candidate_shared = common_prefix_length(candidate, key, bits)
            if candidate_shared > best_shared:
                best = candidate
                best_shared = candidate_shared
        if best is not None:
            return best
        # Last resort: step clockwise; the successor always exists.
        return self._overlay.successor_of(self.id)

    def route_unicast(self, message: OverlayMessage) -> None:
        """Prefix-route a unicast message toward its key."""
        key = message.key
        assert key is not None, "unicast message without a destination key"
        next_hop = self._next_hop(key)
        if next_hop is None:
            self._overlay.do_deliver(self, message)
            return
        self._overlay._network_transmit(self.id, next_hop, message.forwarded_copy(self.id))

    # -- one-to-many ------------------------------------------------------------

    def start_mcast(self, message: OverlayMessage) -> None:
        """Entry point of the prefix-partitioned multicast."""
        self.continue_mcast(message)

    def continue_mcast(self, message: OverlayMessage) -> None:
        """Partition the target keys by their unicast next hop.

        Covered keys are delivered here (once per arrival); the rest
        are grouped by next hop and forwarded as sub-multicasts.  Every
        key follows exactly its unicast route, so coverage is complete;
        a node may receive more than one branch (see package docstring).
        """
        targets = message.target_keys or frozenset()
        mine = {k for k in targets if self.covers(k)}
        if mine:
            self._overlay.do_deliver(self, message)
        groups: dict[int, set[int]] = {}
        for key in targets - mine:
            next_hop = self._next_hop(key)
            if next_hop is None:  # defensive; covered keys already removed
                continue
            groups.setdefault(next_hop, set()).add(key)
        for next_hop, keys in groups.items():
            branch = message.forwarded_copy(self.id, target_keys=frozenset(keys))
            self._overlay._network_transmit(self.id, next_hop, branch)

    def continue_sequential(self, message: OverlayMessage) -> None:
        """Conservative walk: chase the nearest remaining key clockwise."""
        keyspace = self._overlay.keyspace
        targets = message.target_keys or frozenset()
        mine = {k for k in targets if self.covers(k)}
        if mine:
            self._overlay.do_deliver(self, message)
        rest = frozenset(targets - mine)
        if not rest:
            return
        next_key = min(rest, key=lambda k: keyspace.distance(self.id, k))
        next_hop = self._next_hop(next_key)
        if next_hop is None:
            return
        onward = dataclasses.replace(
            message.forwarded_copy(self.id, target_keys=rest), key=next_key
        )
        self._overlay._network_transmit(self.id, next_hop, onward)
