"""A Pastry-style node: leaf set + per-bit prefix routing table.

Routing works digit by digit (here: bit by bit).  To route toward key
``k``, a node forwards to its routing-table entry for the first bit
where its own id differs from ``k`` — that entry shares a strictly
longer prefix with ``k``, so every hop makes prefix progress and
routing terminates in at most ``m`` hops.  Once ``k`` falls within the
leaf set's ring span, the message jumps directly to the leaf covering
it.
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
    node's fingers).  A stale node catches up by replaying the
    overlay's membership delta log — joins min-update exactly one
    routing-table row and dirty the leaf set only when they land inside
    its arc; departures recompute exactly the rows they held — and
    falls back to wholesale recomputation only when the log no longer
    reaches its version (or the gap exceeds the state size).  Joiners
    are seeded from their successor's table at join time.
    """

    def __init__(self, node_id: int, overlay: "PastryOverlay") -> None:
        self.id = node_id
        self._overlay = overlay
        self._leaf_set: list[int] = []
        self._table: list[int | None] = []
        self._version = -1
        keyspace = overlay.keyspace
        self._bits = keyspace.bits
        self._size = keyspace.size
        # Replaying more deltas than the routing state has entries is
        # slower than recomputing it; past this many missed deltas the
        # node falls back to a wholesale rebuild (same rule as Chord's
        # table-rows bound).
        self._patch_limit = keyspace.bits + overlay.leaf_set_size
        # Maintenance counters, mirroring ChordNode's read surface so
        # harnesses can report all overlays uniformly.
        registry = overlay.telemetry.registry
        self._rebuilds_counter = registry.counter(
            "pastry.table_rebuilds", node=node_id
        )
        self._patches_counter = registry.counter(
            "pastry.table_patches", node=node_id
        )
        self._seeds_counter = registry.counter(
            "pastry.table_seeds", node=node_id
        )

    @property
    def table_rebuilds(self) -> int:
        """Full routing-state recomputations (leaf set + table)."""
        return self._rebuilds_counter.value

    @property
    def table_patches(self) -> int:
        """Incremental delta-log patches of the routing state."""
        return self._patches_counter.value

    @property
    def table_seeds(self) -> int:
        """Join-time routing-state seedings."""
        return self._seeds_counter.value

    # -- routing state -----------------------------------------------------

    def _refresh(self) -> None:
        """Catch the leaf set + routing table up to the ring version.

        Replays the overlay's membership delta log when it stretches
        back to this node's version and the gap is small enough;
        otherwise recomputes both structures wholesale.
        """
        overlay = self._overlay
        version = overlay.ring_version
        if self._version == version:
            return
        log = overlay._delta_log
        start = self._version - overlay._delta_base
        if start < 0 or len(log) - start > self._patch_limit:
            self._rebuild(version)
        else:
            self._patch(log, start, version)

    def _rebuild(self, version: int) -> None:
        self._leaf_set = self._overlay.compute_leaf_set(self.id)
        self._table = self._overlay.compute_routing_table(self.id)
        self._version = version
        self._rebuilds_counter.inc()

    def _patch(
        self, log: list[tuple[str, int, int]], start: int, version: int
    ) -> None:
        """Replay membership deltas instead of rebuilding.

        Routing-table rows: a join J lands in exactly the row
        ``common_prefix_length(self, J)`` — its id shares that many
        leading bits with ours and differs at the next — and the row
        entry is the *smallest* id in the row's half-space, so the
        update is a min.  A departure only invalidates rows whose entry
        is the departed node; those are recomputed from the current
        ring, which is exact because later joins in the log are already
        reflected there (the min-update then no-ops) and later
        departures of the recomputed entry recompute again.

        Leaf set: a join matters only if it falls inside the current
        leaf arc (anything outside is farther than every existing leaf)
        and a departure only if it takes a current leaf — or, either
        way, if the set holds fewer than L nodes (small ring: every
        membership change can shift it).  The first delta that matters
        marks the set dirty; it is then recomputed once from the
        current ring, which subsumes the remaining deltas.
        """
        overlay = self._overlay
        me = self.id
        size = self._size
        table = self._table
        leaves = self._leaf_set
        leaf_dirty = len(leaves) < self._overlay.leaf_set_size
        bits = self._bits
        for index in range(start, len(log)):
            op, node_id, other = log[index]
            if op == "join":
                row = common_prefix_length(me, node_id, bits)
                entry = table[row]
                if entry is None or node_id < entry:
                    table[row] = node_id
                if not leaf_dirty:
                    arc_start = leaves[0]
                    span = (leaves[-1] - arc_start) % size
                    if (node_id - arc_start) % size <= span:
                        leaf_dirty = True
            else:  # depart
                if node_id in table:
                    table_row = overlay._table_row
                    for row in range(bits):
                        if table[row] == node_id:
                            table[row] = table_row(me, row)
                if not leaf_dirty and node_id in leaves:
                    leaf_dirty = True
        if leaf_dirty:
            self._leaf_set = overlay.compute_leaf_set(me)
        self._version = version
        self._patches_counter.inc()

    def seed_tables(self) -> None:
        """Seed routing state at join time from the successor's table.

        Called by the overlay right after this node's join is applied.
        For every row below ``common_prefix_length(self, successor)``
        the two nodes share the row's prefix *and* the flipped bit, so
        the row half-spaces — and hence the entries — are identical and
        copy over; deeper rows are recomputed with one ring bisect
        each.  The successor is refreshed first so its rows are at the
        current version (which already includes this join).  The leaf
        set is taken from the ring directly (it is this node's own
        neighborhood; the successor's tells us nothing extra).
        """
        overlay = self._overlay
        version = overlay.ring_version
        me = self.id
        bits = self._bits
        succ_id = overlay.successor_of(me)
        if succ_id == me:  # alone on the ring
            self._table = [None] * bits
            self._leaf_set = []
        else:
            succ = overlay._nodes[succ_id]
            assert isinstance(succ, PastryNode)
            succ._refresh()
            succ_table = succ._table
            shared = common_prefix_length(me, succ_id, bits)
            table_row = overlay._table_row
            self._table = [
                succ_table[row] if row < shared else table_row(me, row)
                for row in range(bits)
            ]
            self._leaf_set = overlay.compute_leaf_set(me)
        self._version = version
        self._seeds_counter.inc()

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
