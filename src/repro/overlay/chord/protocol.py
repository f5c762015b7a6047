"""Protocol-level Chord: message-based join, stabilization and lookups.

The main :class:`~repro.overlay.chord.ChordOverlay` models a *converged*
ring (pointers are derived from the global membership), which matches
the paper's measurement setup.  This module implements the actual Chord
maintenance protocol of Stoica et al. on top of the same simulated
network, so that the cost and the convergence of self-organization —
the property the paper's architecture inherits from the overlay — can
be measured rather than assumed:

- ``join``: the new node asks a bootstrap node to route a
  FIND_SUCCESSOR request for its own id, then adopts the answer as its
  successor (O(log n) one-hop messages);
- ``stabilize``: each node periodically asks its successor for the
  successor's predecessor, adopts a closer node if one appeared, and
  notifies the successor of itself;
- ``fix_fingers``: each node refreshes one finger entry per period via
  a routed lookup;
- failures: each node keeps a successor list; when the successor stops
  responding the next list entry takes over.

All maintenance traffic is charged to :data:`MessageKind.CONTROL`, so
experiments can report the price of self-configuration separately from
pub/sub traffic.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

from repro.errors import OverlayError
from repro.overlay.api import (
    MessageKind,
    NeighborSide,
    OverlayMessage,
    OverlayNetwork,
    OverlayNode,
    StateTransferHook,
    next_request_id,
)
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer

_lookup_ids = itertools.count(1)


# -- protocol payloads -------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FindSuccessor:
    """Routed request: who covers ``key``? Reply to ``reply_to``."""

    key: int
    reply_to: int
    lookup_id: int


@dataclasses.dataclass(frozen=True)
class FoundSuccessor:
    """Answer to :class:`FindSuccessor`: ``successor`` covers the key."""

    key: int
    successor: int
    lookup_id: int


@dataclasses.dataclass(frozen=True)
class GetPredecessor:
    """Stabilization probe: tell me your predecessor and successor list."""

    reply_to: int


@dataclasses.dataclass(frozen=True)
class PredecessorIs:
    """Answer to :class:`GetPredecessor`."""

    node: int
    predecessor: int | None
    successor_list: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Notify:
    """'I believe I am your predecessor' (Chord's notify)."""

    node: int


@dataclasses.dataclass(frozen=True)
class LeaveNotice:
    """Graceful departure: hand neighbors their new pointers."""

    node: int
    new_successor: int
    new_predecessor: int | None


#: Payload types handled by the maintenance protocol itself; anything
#: else is an application message routed with the stored pointers.
PROTOCOL_PAYLOADS = (
    FindSuccessor,
    FoundSuccessor,
    GetPredecessor,
    PredecessorIs,
    Notify,
    LeaveNotice,
)


class ProtocolChordNode(OverlayNode):
    """A Chord node with *stored* (possibly stale) routing state."""

    def __init__(self, node_id: int, overlay: "ProtocolChordOverlay") -> None:
        super().__init__(node_id, overlay)
        keyspace = overlay.keyspace
        self.successor: int = node_id
        self.predecessor: int | None = None
        self.successor_list: list[int] = []
        self.fingers: list[int | None] = [None] * keyspace.bits
        self._next_finger = 0
        self._pending_lookups: dict[int, Callable[[int], None]] = {}

    # -- pointer helpers ------------------------------------------------------

    def live_successor(self) -> int:
        """The first responsive entry of successor ∪ successor list."""
        for candidate in [self.successor, *self.successor_list]:
            if candidate == self.id or self._overlay.is_alive(candidate):
                return candidate
        return self.id

    def pointers(self) -> tuple[list[int], int]:
        """Live fingers, successor and successor list.  Stored beliefs,
        so none is certified: m-cast sends each key to the farthest
        pointer strictly before it, as :meth:`closest_preceding` does."""
        overlay = self._overlay
        return [
            candidate
            for candidate in [*self.fingers, self.successor, *self.successor_list]
            if candidate is not None
            and candidate != self.id
            and overlay.is_alive(candidate)
        ], 0

    def closest_preceding(self, key: int) -> int:
        """Best known node strictly preceding ``key`` (fingers + succ)."""
        keyspace = self._overlay.keyspace
        target = keyspace.distance(self.id, key)
        best = self.id
        best_distance = 0
        for candidate in self.pointers()[0]:
            distance = keyspace.distance(self.id, candidate)
            if 0 < distance < target and distance > best_distance:
                best = candidate
                best_distance = distance
        return best

    # -- application-side coverage (stored pointers) ---------------------

    def owned_span(self) -> tuple[int, int]:
        """Coverage according to *stored* state, ``(pred, self]``, as
        ``(start, length)``: the ``length`` keys clockwise from ``start``.

        During convergence this can disagree with the ideal ring — the
        price of self-organization the pub/sub layer rides on top of.
        A node with no predecessor yet only claims its own id (unless
        it believes it is alone).
        """
        me, size, predecessor = self.id, self._overlay.keyspace.size, self.predecessor
        if predecessor is None:
            return me, (size if self.successor == me else 1)
        # (me - pred - 1) % size + 1: the arc's length, size when pred == me.
        return (predecessor + 1) % size, (me - predecessor - 1) % size + 1

    # -- message handling ---------------------------------------------------

    def receive(self, message: OverlayMessage) -> None:
        """Network upcall: a maintenance message is handled here, an
        application message as on every overlay."""
        payload = message.payload
        if not isinstance(payload, PROTOCOL_PAYLOADS):
            super().receive(message)
            return
        if isinstance(payload, FindSuccessor):
            self._handle_find_successor(payload, message)
        elif isinstance(payload, FoundSuccessor):
            self._handle_found_successor(payload)
        elif isinstance(payload, GetPredecessor):
            self._overlay.send_control(
                self.id,
                payload.reply_to,
                PredecessorIs(
                    node=self.id,
                    predecessor=self.predecessor,
                    successor_list=tuple(
                        [self.successor, *self.successor_list][
                            : self._overlay.successor_list_size
                        ]
                    ),
                ),
            )
        elif isinstance(payload, PredecessorIs):
            self._handle_predecessor_is(payload)
        elif isinstance(payload, Notify):
            self._handle_notify(payload)
        elif isinstance(payload, LeaveNotice):
            self._handle_leave_notice(payload)
        else:
            raise OverlayError(
                f"unexpected protocol payload {type(payload).__name__}"
            )

    def route_unicast(self, message: OverlayMessage, addressed: bool = False) -> None:
        """Greedy routing of an application message over stored pointers
        (every hop alike, so ``addressed`` changes nothing)."""
        key = message.key
        assert key is not None
        if self._overlay.covers(self.id, key):
            self._overlay.do_deliver(self, message)
            return
        keyspace = self._overlay.keyspace
        successor = self.live_successor()
        if successor != self.id and keyspace.in_open_closed(
            key, self.id, successor
        ):
            next_hop = successor
        else:
            next_hop = self.closest_preceding(key)
            if next_hop == self.id:
                next_hop = successor
        if next_hop == self.id:
            # Believed alone: nothing better than delivering here.
            self._overlay.do_deliver(self, message)
            return
        self._overlay.forward(self.id, next_hop, message.forwarded_copy(self.id))

    def _handle_find_successor(
        self, payload: FindSuccessor, message: OverlayMessage
    ) -> None:
        keyspace = self._overlay.keyspace
        successor = self.live_successor()
        if keyspace.in_open_closed(payload.key, self.id, successor):
            self._overlay.send_control(
                self.id,
                payload.reply_to,
                FoundSuccessor(
                    key=payload.key,
                    successor=successor,
                    lookup_id=payload.lookup_id,
                ),
            )
            return
        next_hop = self.closest_preceding(payload.key)
        if next_hop == self.id:
            next_hop = successor
        if next_hop == self.id:
            # Single-node view: we are our own successor.
            self._overlay.send_control(
                self.id,
                payload.reply_to,
                FoundSuccessor(
                    key=payload.key, successor=self.id, lookup_id=payload.lookup_id
                ),
            )
            return
        self._overlay.forward(
            self.id, next_hop, message.forwarded_copy(self.id)
        )

    def _handle_found_successor(self, payload: FoundSuccessor) -> None:
        callback = self._pending_lookups.pop(payload.lookup_id, None)
        if callback is not None:
            callback(payload.successor)

    def _handle_predecessor_is(self, payload: PredecessorIs) -> None:
        keyspace = self._overlay.keyspace
        candidate = payload.predecessor
        if (
            candidate is not None
            and candidate != self.id
            and self._overlay.is_alive(candidate)
            and keyspace.in_open_open(candidate, self.id, self.successor)
        ):
            self.successor = candidate
        # Refresh the successor list from the successor's view.
        merged = [payload.node, *payload.successor_list]
        self.successor_list = [
            node
            for node in merged
            if node != self.id
        ][: self._overlay.successor_list_size]
        self._overlay.send_control(
            self.id, self.live_successor(), Notify(node=self.id)
        )

    def _adopt_predecessor(self, candidate: int) -> None:
        """Install a closer predecessor, shedding the ceded interval.

        When the predecessor pointer moves from ``old`` to a closer
        ``candidate``, this node's believed coverage shrinks by
        ``(old, candidate]`` — exactly the keys the application must
        hand to the new predecessor (Section 4.1 state transfer).
        """
        old = self.predecessor
        self.predecessor = candidate
        if old is not None and old != candidate:
            self._overlay.fire_state_transfer(self.id, candidate, (old, candidate))

    def _handle_notify(self, payload: Notify) -> None:
        keyspace = self._overlay.keyspace
        if self.predecessor is None or not self._overlay.is_alive(self.predecessor):
            self._adopt_predecessor(payload.node)
            return
        if keyspace.in_open_open(payload.node, self.predecessor, self.id):
            self._adopt_predecessor(payload.node)

    def _handle_leave_notice(self, payload: LeaveNotice) -> None:
        if self.successor == payload.node:
            self.successor = payload.new_successor
        if self.predecessor == payload.node:
            self.predecessor = payload.new_predecessor
        self.successor_list = [
            node for node in self.successor_list if node != payload.node
        ]
        for index, finger in enumerate(self.fingers):
            if finger == payload.node:
                self.fingers[index] = None  # repaired by fix_fingers

    # -- periodic maintenance ---------------------------------------------------

    def stabilize(self) -> None:
        """One stabilization round: probe the successor."""
        successor = self.live_successor()
        if successor == self.id:
            # Self-successor (bootstrap / total failover): adopt the
            # predecessor if one announced itself via notify — the
            # degenerate interval (n, n) admits any other node.
            if self.predecessor is not None and (
                self.predecessor == self.id
                or self._overlay.is_alive(self.predecessor)
            ):
                if self.predecessor != self.id:
                    self.successor = self.predecessor
                    successor = self.predecessor
            if successor == self.id:
                return
        if self.successor != successor:
            self.successor = successor  # failover to the successor list
        self._overlay.send_control(
            self.id, successor, GetPredecessor(reply_to=self.id)
        )

    def fix_next_finger(self) -> None:
        """Refresh one finger entry via a routed lookup."""
        keyspace = self._overlay.keyspace
        index = self._next_finger
        self._next_finger = (self._next_finger + 1) % keyspace.bits
        start = keyspace.finger_start(self.id, index + 1)

        def install(successor: int) -> None:
            self.fingers[index] = successor

        self.lookup(start, install)

    def lookup(self, key: int, callback: Callable[[int], None]) -> None:
        """Asynchronously resolve the successor of ``key``."""
        lookup_id = next(_lookup_ids)
        self._pending_lookups[lookup_id] = callback
        payload = FindSuccessor(key=key, reply_to=self.id, lookup_id=lookup_id)
        message = OverlayMessage(
            kind=MessageKind.CONTROL,
            payload=payload,
            request_id=next_request_id(),
            origin=self.id,
        )
        # Process locally first: we may already know the answer.
        self._handle_find_successor(payload, message)


class ProtocolChordOverlay(OverlayNetwork):
    """A ring of :class:`ProtocolChordNode` with periodic maintenance.

    Unlike :class:`~repro.overlay.chord.ChordOverlay`, pointers here are
    per-node *stored state*, updated only by protocol messages — they
    can be stale, and convergence is something to measure.  The class
    keeps a ground-truth membership set so tests can compare the
    protocol's view against the ideal ring.

    It also implements the full :class:`~repro.overlay.api.OverlayNetwork`
    interface, so the pub/sub stack can run over a *converging,
    self-maintained* ring: application routing and the application-side
    notion of coverage use each node's **stored** (possibly stale)
    pointers, and the Section 4.1 state-transfer hook fires when
    stabilization shrinks a node's believed coverage (its predecessor
    pointer moves closer).

    Args:
        sim: Simulation kernel.
        keyspace: Identifier space.
        network: Message transport (defaults to the paper's 50 ms hops).
        stabilize_period: Seconds between stabilization rounds.
        fix_fingers_period: Seconds between single-finger refreshes.
        successor_list_size: Failure-resilience depth.
    """

    def __init__(
        self,
        sim: Simulator,
        keyspace: KeySpace,
        network: Network | None = None,
        stabilize_period: float = 2.0,
        fix_fingers_period: float = 0.5,
        successor_list_size: int = 4,
        state_transfer: StateTransferHook | None = None,
    ) -> None:
        super().__init__(keyspace, sim, network or Network(sim), state_transfer)
        self.stabilize_period = stabilize_period
        self.fix_fingers_period = fix_fingers_period
        self.successor_list_size = successor_list_size
        self._timers: dict[int, list[PeriodicTimer]] = {}

    # -- accessors ------------------------------------------------------------

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._nodes

    def control_messages(self) -> int:
        """Total one-hop maintenance messages sent so far."""
        return self.recorder.messages.total_sends(MessageKind.CONTROL)

    # -- membership --------------------------------------------------------------

    def bootstrap(self, node_id: int) -> None:
        """Create the first node of the ring."""
        self._keyspace.validate(node_id)
        if self._nodes:
            raise OverlayError("ring already bootstrapped; use join()")
        self._create(node_id)

    def join(self, node_id: int, bootstrap: int | None = None) -> None:
        """Protocol join: look up our successor through ``bootstrap``.

        Defaults to bootstrapping through the longest-lived member.
        """
        self._keyspace.validate(node_id)
        if node_id in self._nodes:
            raise OverlayError(f"node {node_id} already joined")
        if bootstrap is None:
            if not self._nodes:
                self.bootstrap(node_id)
                return
            bootstrap = next(iter(self._nodes))
        if bootstrap not in self._nodes:
            raise OverlayError(f"bootstrap node {bootstrap} not alive")
        node = self._create(node_id)

        def adopt(successor: int) -> None:
            node.successor = successor

        # Route the FIND_SUCCESSOR through the bootstrap node.
        self._nodes[bootstrap].lookup(node_id, adopt)

    def leave(self, node_id: int) -> None:
        """Graceful departure: notify the ring neighbors, then go.

        The leaver points its predecessor at its successor and vice
        versa; remaining stale fingers elsewhere heal via fix_fingers.
        """
        node = self.node(node_id)
        successor = node.live_successor()
        notice = LeaveNotice(
            node=node_id,
            new_successor=successor if successor != node_id else node_id,
            new_predecessor=node.predecessor,
        )
        if node.predecessor is not None and node.predecessor != node_id:
            self.send_control(node_id, node.predecessor, notice)
        if successor != node_id:
            self.send_control(node_id, successor, notice)
        self._remove(node_id)

    def crash(self, node_id: int) -> None:
        """Abrupt failure: state vanishes; others discover via timeouts."""
        if node_id not in self._nodes:
            raise OverlayError(f"no live node with id {node_id}")
        self._remove(node_id)

    def _remove(self, node_id: int) -> None:
        del self._nodes[node_id]
        self._network.unregister(node_id)
        for timer in self._timers.pop(node_id, []):
            timer.stop()

    def _create(self, node_id: int) -> ProtocolChordNode:
        node = ProtocolChordNode(node_id, self)
        self._nodes[node_id] = node
        self._network.register(node_id, node.receive)
        stabilizer = PeriodicTimer(self._sim, self.stabilize_period, node.stabilize)
        fixer = PeriodicTimer(self._sim, self.fix_fingers_period, node.fix_next_finger)
        stabilizer.start()
        fixer.start()
        self._timers[node_id] = [stabilizer, fixer]
        return node

    # -- transport helpers -----------------------------------------------------

    def send_control(self, src: int, dst: int, payload: object) -> None:
        """One-hop control message (reply or direct probe)."""
        if dst == src:
            node = self._nodes.get(src)
            if node is not None:
                node.receive(
                    OverlayMessage(
                        kind=MessageKind.CONTROL,
                        payload=payload,
                        request_id=next_request_id(),
                        origin=src,
                    )
                )
            return
        message = OverlayMessage(
            kind=MessageKind.CONTROL,
            payload=payload,
            request_id=next_request_id(),
            origin=src,
        )
        self._network.transmit(src, dst, message.forwarded_copy(src))

    def forward(self, src: int, dst: int, message: OverlayMessage) -> None:
        """Forward a routed protocol message one hop."""
        self._network.transmit(src, dst, message)

    # -- verification against the ideal ring ----------------------------------

    def ideal_successor(self, node_id: int) -> int:
        """Ground truth: the live node following ``node_id``."""
        ids = self.node_ids()
        index = ids.index(node_id)
        return ids[(index + 1) % len(ids)]

    def converged(self) -> bool:
        """True when every node's successor matches the ideal ring."""
        return all(
            node.successor == self.ideal_successor(node_id)
            for node_id, node in self._nodes.items()
        )

    def run_until_converged(
        self, max_rounds: int = 200
    ) -> tuple[bool, float]:
        """Advance the simulation until successors converge.

        Returns:
            ``(converged, simulated_time_elapsed)``.
        """
        start = self._sim.now
        for _ in range(max_rounds):
            if self.converged():
                return True, self._sim.now - start
            self._sim.run_until(self._sim.now + self.stabilize_period)
        return self.converged(), self._sim.now - start

    # -- the OverlayNetwork interface (application side) -------------------

    def build_ring(self, node_ids) -> None:
        """Protocol bootstrap + sequential joins, then wait for
        convergence (so harnesses can start from a settled ring)."""
        ids = list(dict.fromkeys(node_ids))
        if not ids:
            raise OverlayError("cannot build an empty ring")
        self.bootstrap(ids[0])
        for node_id in ids[1:]:
            self.join(node_id, bootstrap=ids[0])
            self._sim.run_until(self._sim.now + 2 * self.stabilize_period)
        self.run_until_converged()

    def owner_of(self, key: int) -> int:
        """Ground-truth owner (the ideal ring) — for metrics and tests.

        Application delivery uses each node's *believed* coverage
        (:meth:`covers`, off its stored predecessor), which can
        transiently disagree during convergence.
        """
        import bisect

        ids = self.node_ids()
        if not ids:
            raise OverlayError("empty overlay")
        self._keyspace.validate(key)
        index = bisect.bisect_left(ids, key)
        return ids[index % len(ids)] if index < len(ids) else ids[0]

    def neighbor_of(self, node_id: int, side: NeighborSide) -> int:
        node = self.node(node_id)
        if side is NeighborSide.SUCCESSOR:
            return node.live_successor()
        if node.predecessor is not None and self.is_alive(node.predecessor):
            return node.predecessor
        return node_id

    def fire_state_transfer(
        self, from_node: int, to_node: int, key_range: tuple[int, int]
    ) -> None:
        """Invoke the application's churn hook (called by nodes when
        stabilization shrinks their believed coverage)."""
        if self._state_transfer is not None and self.is_alive(to_node):
            self._state_transfer(from_node, to_node, key_range)
