"""The overlay-network interface the pub/sub layer programs against.

Section 3.1 of the paper: virtually all structured overlays expose
``send(m, k)``, ``join()``, ``leave()`` and a ``deliver(m)`` upcall.
Section 4.3.1 extends this interface with ``m-cast(M, K)``, a native
one-to-many primitive.  Section 4.1 additionally relies on each overlay
exposing *some* proprietary way to reach ring neighbors (for state
transfer on join/leave and for the notification-collecting chain).

This module defines those primitives once, in :class:`OverlayNetwork`,
so that the CB-pub/sub layer (:mod:`repro.core`) is portable across
overlays: the test suite exercises it over :mod:`repro.overlay.chord`,
:mod:`repro.overlay.pastry` and :mod:`repro.overlay.can`.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import itertools
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.errors import OverlayError
from repro.overlay.ids import KeySpace

if TYPE_CHECKING:
    from repro.metrics.recorder import MetricsRecorder
    from repro.overlay.network import Network
    from repro.sim.kernel import Simulator
    from repro.telemetry import Telemetry


class MessageKind(enum.Enum):
    """Classification of one-hop messages for the paper's accounting.

    The evaluation (Section 5) reports one-hop message counts broken
    down by request type: subscriptions, publications and notifications.
    ``CONTROL`` covers overlay maintenance (join/stabilize/state
    transfer) and ``COLLECT`` the neighbor-to-neighbor notification
    aggregation traffic of Section 4.3.2, which the harness reports as
    notification traffic.
    """

    SUBSCRIPTION = "subscription"
    UNSUBSCRIPTION = "unsubscription"
    PUBLICATION = "publication"
    NOTIFICATION = "notification"
    COLLECT = "collect"
    CONTROL = "control"

    # Members are singletons compared by identity, so the identity hash
    # is exact, and it runs in C.  ``Enum.__hash__`` is a Python method
    # around ``hash(name)``: the recorder's ``counts[kind] += 1`` paid
    # for it twice on every one-hop send.
    __hash__ = object.__hash__


class RoutingMode(enum.Enum):
    """How a message is propagated to its target key(s) (Section 4.3.1).

    ``UNICAST`` is the *aggressive* baseline for a multi-key request
    (one overlay unicast per key, in parallel) and the mode of every
    single-key message; ``MCAST`` is the native one-to-many primitive;
    ``SEQUENTIAL`` is the *conservative* walk, key by key
    (:meth:`OverlayNetwork.continue_sequential`).
    """

    UNICAST = "unicast"
    MCAST = "mcast"
    SEQUENTIAL = "sequential"


_request_counter = itertools.count(1)


def next_request_id() -> int:
    """Allocate a fresh id grouping the one-hop messages of one request."""
    return next(_request_counter)


@dataclasses.dataclass(slots=True)
class OverlayMessage:
    """An application message routed through the overlay.

    Attributes:
        kind: Accounting class of the message (see :class:`MessageKind`).
        payload: Opaque application payload (the pub/sub layer's data).
        request_id: Groups all one-hop messages belonging to one logical
            request (one ``sub()``, ``pub()`` or notification batch), so
            the harness can compute hops **per request** as in Fig. 5.
        origin: Overlay id of the node that initiated the request.
        key: Unicast destination key (``send``); None for multicast.
        target_keys: The piggybacked target-key set ``M.K`` used by the
            ``m-cast`` algorithm of Fig. 4; None for unicast.
        hops: One-hop transmissions this copy of the message has made.
        path: The hops this copy traversed, one entry appended per hop:
            the node id alone (:meth:`forwarded_copy`, and a Pastry or
            protocol-Chord unicast hop), or the flat pair ``node id,
            stamp``, so ``path[::2]`` are the ids.  Chord's and CAN's
            routed hops and every overlay's m-cast hops stamp what the
            hop owned when it forwarded this copy: a Chord hop its
            arc's predecessor, a CAN hop its zone's ``(start,
            length)``, and a Pastry or protocol-Chord m-cast hop its
            ``owned_span()``, also ``(start, length)``.
        trace: Telemetry span id of the hop that produced this copy
            (the request's root span before the first transmission);
            0 when the run is not traced.  The tracer overwrites it at
            every ``send`` event, so the span graph records causal
            parentage even through in-place envelope reuse.
    """

    kind: MessageKind
    payload: Any
    request_id: int
    origin: int
    key: int | None = None
    target_keys: frozenset[int] | None = None
    mode: RoutingMode = RoutingMode.UNICAST
    hops: int = 0
    path: tuple[int, ...] = ()
    trace: int = 0

    def forwarded_copy(self, via: int) -> "OverlayMessage":
        """A copy of this message as forwarded through node ``via``.

        Ownership note: routing layers may instead forward an envelope
        *in place* (mutating ``hops``/``path``) when they hold the only
        reference — i.e. the message arrived from the network and was
        **not** delivered locally.  An envelope that reached the
        application through the deliver upcall must never be mutated or
        reused afterwards: the application (or a test harness) may have
        retained it.
        """
        # Direct construction: dataclasses.replace pays dict-merge
        # overhead, and this runs once per hop.
        return OverlayMessage(
            kind=self.kind,
            payload=self.payload,
            request_id=self.request_id,
            origin=self.origin,
            key=self.key,
            target_keys=self.target_keys,
            mode=self.mode,
            hops=self.hops + 1,
            path=self.path + (via,),
            trace=self.trace,
        )


class DeliverFn(Protocol):
    """Application upcall invoked when the overlay delivers a message.

    Args:
        node_id: The overlay node the message was delivered at.
        message: The delivered message.
    """

    def __call__(self, node_id: int, message: OverlayMessage) -> None: ...


class NeighborSide(enum.Enum):
    """Ring direction for neighbor-to-neighbor sends (Section 4.3.2)."""

    SUCCESSOR = "successor"
    PREDECESSOR = "predecessor"


class OverlayNode:
    """One overlay node: the message plumbing every overlay shares (one
    API over every overlay, §3.1 and §4.3.1) and the Fig. 4 m-cast step
    (:meth:`continue_mcast`), the only one.  A node class adds only its
    routing — ``owned_span`` (the keys it covers as ``(start,
    length)``), ``route_unicast`` (``addressed``: this node picked the
    key) and its m-cast pointers: either a pointer list (``pointers``,
    which the textbook rule of :meth:`mcast_pointers` splits over:
    Pastry, protocol-level Chord) or a rule of its own (Chord's and
    CAN's ``mcast_pointers``) — and overrides the plumbing only for a
    policy of its own (Chord's touch log and origin cache view, CAN's
    delivery log)."""

    def __init__(self, node_id: int, overlay: "OverlayNetwork") -> None:
        self.id = node_id
        self._overlay = overlay

    def owned_span(self) -> tuple[int, int]:
        raise NotImplementedError

    def route_unicast(self, message: OverlayMessage, addressed: bool = False) -> None:
        raise NotImplementedError

    def pointers(self) -> tuple[list[int], int]:
        """The live nodes other than this one that this node's m-casts
        may send to, in any order and possibly repeated, and how many of
        them are *certified*: the nearest that many, clockwise, are its
        consecutive ring successors as the ring has them, so each owns
        the keys from the one before it up to itself."""
        raise NotImplementedError

    def mcast_pointers(
        self, message: OverlayMessage, distances: list[int], count: int, arcs
    ) -> tuple[Any, int, int, dict[int, int]]:
        """The textbook pointer rule over :meth:`pointers`, stamped with
        :meth:`owned_span`.  Mine are the keys of my span: the key at
        distance 0 and those past my predecessor, at ``size - length``.

        A key no farther than the last certified successor goes to the
        first of them at or past it, which owns it.  Any other key goes
        to the farthest pointer strictly before it, or, with none before
        it, to the nearest.  A group thus runs up to a pointer, that
        pointer included, and the keys of one live node never straddle
        it.  Only a certified successor is known to own the keys up to
        it, so an uncertified pointer gets a key that lies before it
        only when no pointer lies before the key.
        """
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

    def continue_mcast(self, message: OverlayMessage, arcs: dict | None = None) -> None:
        """One step of the paper's Fig. 4 m-cast (§4.3.1), written once:
        deliver what this node owns, then split the rest among its
        pointers, one branch per pointer.

        The ``count`` targets' clockwise distances from this node are
        sorted once (one key needs no sort), and the node's rule,
        ``mcast_pointers``, returns ``(stamp, lo, hi, {pointer: first
        position})``.  *Owned arcs*: a span holds its node's id, so the
        keys it owns are a prefix and a suffix of that order, the ones
        outside ``distances[lo:hi]``.  *Grouping*: each branch is a run
        of the rest, up to the next pointer's first position, sent whole
        to one pointer: one that owns its nearest key, or that lies
        before it, as far as this node knows spans.  *At most once*: a
        run ends where one live node's span ends and the next one's
        starts, and no live node lies in another's span, so one node's
        keys travel in one branch, and it delivers once (split per key,
        a pointer could get an uncertified key of its own again, through
        the pointer before it).
        *Overshoot*: a fresh pointer's span holds the nearest key or
        lies before it, so every hop cuts the distance; a stale one (a
        cached arc, a join racing the message) lands keys more than half
        the ring ahead, and the rule hands them all one step back.

        Branches leave farthest first, each one hop, sharing one path
        tuple with ``stamp`` beside this node's id.  An envelope not
        delivered here carries the nearest, once the copies are made
        (the tracer stamps every envelope it sees sent).  ``arcs`` is
        the origin's cache (Chord's ``start_mcast``), None elsewhere.

        A working rule needs far fewer hops than there are keys, but
        one that hands back a key its node owns would circulate it
        forever: a copy past that many hops raises
        :class:`~repro.errors.OverlayError` naming its request.
        """
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

    def receive(self, message: OverlayMessage) -> None:
        """Network upcall: continue routing or deliver ``message``."""
        mode = message.mode
        if mode is RoutingMode.MCAST:
            self.continue_mcast(message)
        elif mode is RoutingMode.SEQUENTIAL:
            self._overlay.continue_sequential(self, message)
        elif message.key is None:
            # Direct one-hop message (neighbor sends: state transfer,
            # replication, COLLECT aggregation) — no further routing.
            self._overlay.do_deliver(self, message)
        else:
            self.route_unicast(message)

    def deliver(self, message: OverlayMessage) -> None:
        """Hand ``message`` to the application at this node."""
        self._overlay.do_deliver(self, message)

    def start_mcast(self, message: OverlayMessage) -> None:
        """Entry point of the m-cast at the sending node."""
        self.continue_mcast(message)


class OverlayNetwork(abc.ABC):
    """A structured overlay: logical-key routing over a set of nodes.

    The pub/sub layer only ever talks to this interface.  The base owns
    what every overlay shares: the table of live node objects, the
    application entry points (``send``, ``mcast``, ``sequential_cast``:
    validate, build the request envelope, hand it to the source node),
    the conservative walk (:meth:`continue_sequential`), the coverage
    test (:meth:`covers`, off each node's ``owned_span``), the fresh
    envelope of a request (:meth:`_prepared`) and the maintenance
    totals; the m-cast step is the node base's
    (:meth:`OverlayNode.continue_mcast`).  A subclass (Chord, Pastry,
    CAN, protocol-level Chord) contributes membership, the KN-mapping
    and an :class:`OverlayNode` type that routes.

    No node holds membership-derived state — fingers, leaf spans, prefix
    rows, CAN geometry and CAN m-cast pointers are read off the
    overlay's own tables — so no overlay does any routing-state
    maintenance to count.
    """

    def __init__(
        self,
        keyspace: KeySpace,
        sim: "Simulator",
        network: "Network",
        state_transfer: "StateTransferHook | None" = None,
    ) -> None:
        self._keyspace = keyspace
        # The exclusive upper bound of a key, for the inline key checks.
        self._key_limit = keyspace.size
        self._sim = sim
        self._network = network
        # Per-message bindings, resolved once per overlay: nodes hand
        # every one-hop message straight to the network's transmit, and
        # do_deliver charges every delivery to its request's trace and
        # reads the observer tap.
        self._network_transmit = network.transmit
        self._traces = network.recorder.messages.traces
        self._tap = network.tap
        self._deliver: DeliverFn | None = None
        self._state_transfer = state_transfer
        # Live node objects by id; a sharded worker holds only its own.
        self._nodes: dict[int, OverlayNode] = {}

    @property
    def keyspace(self) -> KeySpace:
        """The logical key space of this overlay."""
        return self._keyspace

    @property
    def sim(self) -> "Simulator":
        """The simulation kernel."""
        return self._sim

    @property
    def network(self) -> "Network":
        """The underlying message transport."""
        return self._network

    @property
    def recorder(self) -> "MetricsRecorder":
        """Metrics recorder shared with the network."""
        return self._network.recorder

    @property
    def telemetry(self) -> "Telemetry":
        """Observability sink shared with the network."""
        return self._network.telemetry

    def set_deliver(self, deliver: DeliverFn) -> None:
        """Register the application's delivery upcall."""
        self._deliver = deliver

    def set_state_transfer(self, hook: "StateTransferHook | None") -> None:
        """Register the application's churn state-transfer callback."""
        self._state_transfer = hook

    def do_deliver(self, node, message: OverlayMessage) -> None:
        """Count an application delivery at ``node``, announce it and
        raise the upcall.

        The one place a message leaves the overlay upward — the paper's
        ``deliver(m)`` — for every overlay and every cast mode, so the
        one place a delivery is counted: inline, into its request's
        trace, which opens here when no ``request`` event or send did
        (a shard worker's terminal delivery of a request another shard
        began).
        """
        node_id = node.id
        now = self._sim.now
        request_id = message.request_id
        traces = self._traces
        if request_id in traces:
            trace = traces[request_id]
        else:
            trace = self._network.recorder.messages.begin_request(
                message.kind, request_id, now
            )
        trace.deliveries.append((node_id, now))
        if message.hops > trace.max_path_hops:
            trace.max_path_hops = message.hops
        for fn in self._tap.deliver:
            fn(message, node_id, now)
        deliver = self._deliver
        if deliver is not None:
            deliver(node_id, message)

    def _prepared(
        self,
        message: OverlayMessage,
        key: int | None = None,
        target_keys: frozenset[int] | None = None,
        mode: RoutingMode = RoutingMode.UNICAST,
        hops: int = 0,
        path: tuple[int, ...] = (),
    ) -> OverlayMessage:
        """A fresh envelope of ``message``'s request: the application's
        message at its start, or the walk's past a delivery."""
        # Direct construction instead of dataclasses.replace: this runs
        # once per request, and replace() walks every field.
        return OverlayMessage(
            kind=message.kind,
            payload=message.payload,
            request_id=message.request_id,
            origin=message.origin,
            key=key,
            target_keys=target_keys,
            mode=mode,
            hops=hops,
            path=path,
            trace=message.trace,
        )

    def maintenance_totals(self) -> dict[str, int]:
        """Run-wide routing-state maintenance counts: all 0, since no
        node holds state to maintain.  The three keys stay because the
        performance ledger reports them."""
        return {"table_rebuilds": 0, "table_patches": 0, "table_seeds": 0}

    # -- membership ---------------------------------------------------

    def node(self, node_id: int):
        """The live node object with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise OverlayError(f"no live node with id {node_id}") from None

    @abc.abstractmethod
    def node_ids(self) -> list[int]:
        """Ids of all live nodes, in ring order."""

    def app_node_ids(self) -> list[int]:
        """Ids the *application layer* should attach pub/sub state to.

        The ids of :meth:`node_ids` with a node object.  A serial
        overlay materializes every member, so the two are equal; a
        sharded worker knows the whole membership but builds node
        objects and application state only for the ids its shard owns.
        """
        nodes = self._nodes
        return [node_id for node_id in self.node_ids() if node_id in nodes]

    @abc.abstractmethod
    def join(self, node_id: int) -> None:
        """Add a node with the given id to the overlay."""

    @abc.abstractmethod
    def leave(self, node_id: int) -> None:
        """Gracefully remove a node from the overlay."""

    @abc.abstractmethod
    def crash(self, node_id: int) -> None:
        """Abruptly remove a node (no state handover)."""

    # -- key coverage -------------------------------------------------

    @abc.abstractmethod
    def owner_of(self, key: int) -> int:
        """Id of the live node currently covering ``key`` (KN-mapping).

        Exposed for verification and metrics; the pub/sub layer itself
        never calls this (the KN-mapping is hidden from applications,
        Section 3.1).
        """

    def covers(self, node_id: int, key: int) -> bool:
        """True if ``node_id`` is the node currently covering ``key``:
        the key lies in the node's ``owned_span``.

        A node may legitimately ask about its *own* coverage (it knows
        its portion of the key space); the pub/sub layer uses this to
        decide which rendezvous keys of a delivered message it hosts.
        """
        size = self._key_limit
        # KeySpace.validate, inline, as in send.
        if not (key.__class__ is int and 0 <= key < size):
            self._keyspace.validate(key)
        start, length = self.node(node_id).owned_span()
        return (key - start) % size < length

    def neighbor_of(self, node_id: int, side: NeighborSide) -> int:
        """Id of the ring neighbor of ``node_id`` on the given side.

        Read off the subclass's ``successor_of`` / ``predecessor_of``.
        """
        if side is NeighborSide.SUCCESSOR:
            return self.successor_of(node_id)
        return self.predecessor_of(node_id)

    def heir_of(self, node_id: int) -> int:
        """The node that inherits ``node_id``'s keys if it disappears.

        Ring overlays hand a departed node's interval to its successor;
        CAN's zone-absorption rule differs.  The pub/sub layer promotes
        replicas at the heir after a crash (Section 4.1).
        """
        return self.neighbor_of(node_id, NeighborSide.SUCCESSOR)

    # -- communication ------------------------------------------------

    def send(self, source_id: int, key: int, message: OverlayMessage) -> None:
        """Route ``message`` from ``source_id`` to the node covering ``key``."""
        # KeySpace.validate, inline: it is called only to raise.
        if not (key.__class__ is int and 0 <= key < self._key_limit):
            self._keyspace.validate(key)
        self.node(source_id).route_unicast(self._prepared(message, key=key), True)

    def mcast(
        self, source_id: int, keys: Iterable[int], message: OverlayMessage
    ) -> None:
        """Deliver ``message`` once to every node covering a key in ``keys``
        (Section 4.3.1's native one-to-many primitive)."""
        targets = frozenset(keys)
        limit = self._key_limit
        for key in targets:  # KeySpace.validate, inline, as in send
            if not (key.__class__ is int and 0 <= key < limit):
                self._keyspace.validate(key)
        if targets:
            self.node(source_id).start_mcast(
                self._prepared(message, target_keys=targets, mode=RoutingMode.MCAST)
            )

    def sequential_cast(
        self, source_id: int, keys: Iterable[int], message: OverlayMessage
    ) -> None:
        """Conservative one-to-many: walk the targets key by key
        (Section 4.3.1's unicast-based baseline)."""
        targets = frozenset(keys)
        limit = self._key_limit
        for key in targets:  # KeySpace.validate, inline, as in send
            if not (key.__class__ is int and 0 <= key < limit):
                self._keyspace.validate(key)
        if targets:
            self.continue_sequential(
                self.node(source_id),
                self._prepared(
                    message, target_keys=targets, mode=RoutingMode.SEQUENTIAL
                ),
            )

    def continue_sequential(self, node: OverlayNode, message: OverlayMessage) -> None:
        """One step at ``node`` of the conservative walk, written once for
        every overlay: "send to k1; each covering node forwards to the
        next key" (Section 4.3.1), on nothing but the node calls of
        :class:`OverlayNode`.

        A node that covers any remaining target delivers through its own
        delivery step; what it covers is read once per hop, as its
        ``owned_span``, and tested per key inline.  The walk keeps
        chasing ``message.key`` while it is still a target, and otherwise
        picks the nearest remaining key clockwise: a node that merely
        forwards never re-targets, so a walk whose hops disagree with ring
        distance (CAN's torus) cannot ping-pong between far-apart keys.
        The leg is the node's own unicast, ``addressed`` where it picked,
        as at a unicast's sender: such a node reads its location cache
        (CAN) and applies no overshoot rule (Chord) — the key it picked
        may lie far ahead on purpose.  A delivered envelope belongs to the
        application, so only then is a fresh one made; otherwise it goes
        on in place.
        """
        targets = message.target_keys
        size = self._key_limit
        start, length = node.owned_span()
        delivered = False
        for key in targets:
            # covers(key), inline: one call per hop, not one per key.
            if (key - start) % size < length:
                node.deliver(message)
                targets = frozenset(
                    [k for k in targets if (k - start) % size >= length]
                )
                if not targets:
                    return
                delivered = True
                break
        key = message.key
        addressed = key not in targets
        if addressed:
            # min() with a key lambda is measurably slower on this path.
            me, best = node.id, size
            for k in targets:
                distance = (k - me) % size
                if distance < best:
                    best, key = distance, k
        if delivered:  # route_unicast counts the hop
            message = self._prepared(
                message, key, targets, message.mode, message.hops, message.path
            )
        else:
            message.key = key
        node.route_unicast(message, addressed)

    def send_to_neighbor(
        self, source_id: int, side: NeighborSide, message: OverlayMessage
    ) -> None:
        """One-hop direct send to a ring neighbor (Sections 4.1, 4.3.2)."""
        neighbor = self.neighbor_of(source_id, side)
        if neighbor == source_id:
            self.do_deliver(self.node(source_id), message)
            return
        self._network_transmit(
            source_id, neighbor, message.forwarded_copy(source_id)
        )

    def transmit(self, src: int, dst: int, message: OverlayMessage) -> None:
        """One-hop transmission between two specific nodes.

        Intended for overlay-internal use and for the churn state
        transfer between already-acquainted neighbors; applications
        address by key, never by node.
        """
        self._network_transmit(src, dst, message)


class StateTransferHook(Protocol):
    """Callback letting the application move per-key state on churn.

    Section 4.1: when a node joins, subscriptions mapping to its new
    partition must move to it; when a node leaves, its stored state is
    handed to the ring neighbor inheriting its interval.

    Args:
        from_node: Node currently holding the state (or the leaver).
        to_node: Node that should now hold it (or the joiner).
        key_range: The circular key interval ``(left, right]`` changing
            ownership.
    """

    def __call__(
        self, from_node: int, to_node: int, key_range: tuple[int, int]
    ) -> None: ...
