"""Simulated point-to-point network with latency and hop accounting.

Every inter-node transmission in the overlay goes through
:meth:`Network.transmit`, which (a) counts the one-hop message, by kind
and against its request, straight into the metrics recorder's dicts —
the hop count is the run's output, so no observer frame stands between
a message and its count — (b) announces it on the observer tap
(:mod:`repro.telemetry.tap`), and (c) enqueues it for the receiver
after a delay drawn from the configured delay model.  The paper's
evaluation fixes the per-hop delay at 50 ms (Section 5.1).

Transmissions addressed to a node that has crashed are silently dropped
(the send is still counted — the bytes left the sender).

Delivery is *one kernel event per arrival instant*.  The paper's
evaluation fixes the hop delay, so everything sent while the clock
stands at ``t`` lands at ``t + delay``, and the m-cast primitive
(Fig. 4) fans a publication out into waves of one-hop messages that
do.  The network keeps a *wave* per arrival instant — ``arrival ->
{dst -> [messages]}`` — and the instant's first send schedules its one
drain.  The drain walks the wave in insertion order: buckets in order
of their first send, the messages of a bucket in send order, the
destination's liveness re-read before every message, so a
handler that unregisters its own node mid-bucket drops the remainder
exactly as a one-event-per-message engine would.  Per-message
accounting (send counters, drop/loss counters, delivery times) is that
engine's bit for bit.

Nothing selects this: a memo of the last arrival makes finding the wave
one float compare under a constant delay, and a delay model that draws
a fresh latency per send gets a wave per message, in the same order as
before.  Two edges are observable, neither reached by any workload and
both pinned in ``tests/overlay/test_network_reference.py``:

- Against *other* kernel events.  Kernel events count arrival instants
  (so do ``events_processed``, ``pending`` and ``run(max_events)``),
  and a wave fires at the ``(time, seq)`` of its first send: an
  unrelated event scheduled for exactly a wave's
  timestamp after that send fires after the whole wave, even if some of
  the wave's buckets were first sent into later than it was scheduled.
- Under zero delay.  A wave is detached before it is drained, so what a
  handler sends at zero delay lands after the whole wave — where a
  one-event-per-message engine delivers it — and never in a bucket of
  the instant being drained that is still pending.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.errors import OverlayError
from repro.metrics.recorder import MetricsRecorder
from repro.overlay.api import OverlayMessage
from repro.sim.kernel import Simulator
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.tap import Tap


class DelayModel(Protocol):
    """Samples the one-hop latency between two nodes."""

    def sample(self, src: int, dst: int) -> float: ...


class FixedDelay:
    """Constant one-hop delay (the paper uses 50 ms)."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0:
            raise OverlayError(f"delay must be non-negative, got {delay}")
        self._delay = delay

    def sample(self, src: int, dst: int) -> float:
        return self._delay


class UniformDelay:
    """One-hop delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float, rng: random.Random) -> None:
        if not 0 <= low <= high:
            raise OverlayError(f"invalid delay bounds [{low}, {high}]")
        self._low = low
        self._high = high
        self._rng = rng

    def sample(self, src: int, dst: int) -> float:
        return self._rng.uniform(self._low, self._high)


ReceiveFn = Callable[[OverlayMessage], None]
Wave = dict[int, list[OverlayMessage]]


class Network:
    """Message transport between overlay nodes.

    Nodes register a receive callback under their overlay id; senders
    address transmissions by id.  The network is oblivious to routing —
    it only ever moves a message one hop.
    """

    def __init__(
        self,
        sim: Simulator,
        delay_model: DelayModel | None = None,
        recorder: MetricsRecorder | None = None,
        loss_rate: float = 0.0,
        loss_rng: random.Random | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """
        Args:
            sim: The simulation kernel.
            delay_model: Per-hop latency (default: the paper's 50 ms).
            recorder: Metrics sink; a fresh one is created if omitted.
            loss_rate: Probability that a transmission is silently lost
                in flight (fault injection; the paper's model is
                loss-free, so the default is 0).
            loss_rng: Randomness for loss draws (required if
                ``loss_rate`` > 0, to keep runs reproducible).
            telemetry: Observability sink shared by everything built on
                this network; defaults to the disabled, free
                :data:`repro.telemetry.NULL_TELEMETRY`.
        """
        if not 0 <= loss_rate <= 1:
            raise OverlayError(f"loss_rate {loss_rate} outside [0, 1]")
        if loss_rate > 0 and loss_rng is None:
            raise OverlayError("loss_rate > 0 requires a loss_rng")
        self._sim = sim
        self._delay = delay_model or FixedDelay()
        self._recorder = recorder or MetricsRecorder()
        self._loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._handlers: dict[int, ReceiveFn] = {}
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        registry = self._telemetry.registry
        self._dropped_counter = registry.counter("network.dropped")
        self._lost_counter = registry.counter("network.lost")
        #: The observer tap of everything built on this network.  The
        #: recorder is always its first subscriber (to ``request`` and
        #: ``notify``); an enabled telemetry adds its tracer and load
        #: meter.
        self.tap = Tap()
        self.tap.attach(self._recorder)
        # transmit() counts every send into these, inline.
        self._sends_by_kind = self._recorder.messages.sends_by_kind
        self._traces = self._recorder.messages.traces
        self._telemetry.attach_to(self.tap)
        # In-flight messages: one wave, and one drain event, per arrival
        # instant.  A wave's buckets are in order of their first send,
        # each bucket in send order.  The memo is the wave last sent
        # into — under a constant delay, the one every send joins until
        # the clock moves.
        self._waves: dict[float, Wave] = {}
        self._wave_at: float | None = None
        self._wave: Wave = {}
        # Hot-path bindings: transmit() runs once per one-hop message,
        # so resolve the per-call attribute chains once.  A constant
        # delay model (the paper's setup) skips sample() entirely.
        # The exact-type check matters: a FixedDelay *subclass* may
        # override sample(), so only the base class takes the fast path.
        self._schedule_at = sim.schedule_at
        self._fixed_delay: float | None = (
            self._delay._delay if type(self._delay) is FixedDelay else None
        )

    @property
    def recorder(self) -> MetricsRecorder:
        """The metrics recorder charged for every transmission."""
        return self._recorder

    @property
    def telemetry(self) -> Telemetry:
        """The observability sink of this network (and its overlays)."""
        return self._telemetry

    @property
    def dropped(self) -> int:
        """Messages dropped because the destination was not alive.

        Thin view over the ``network.dropped`` registry counter.
        """
        return self._dropped_counter.value

    @property
    def lost(self) -> int:
        """Messages lost in flight by the loss model.

        Thin view over the ``network.lost`` registry counter.
        """
        return self._lost_counter.value

    @property
    def in_flight(self) -> int:
        """Messages transmitted and not yet handed to a receiver.

        Exact between kernel events; a wave is detached before it is
        drained, so the rest of one being delivered is not counted.
        """
        return sum(
            len(bucket) for wave in self._waves.values() for bucket in wave.values()
        )

    def register(
        self, node_id: int, receive: ReceiveFn, receive_batch: object = None
    ) -> None:
        """Attach a node's receive callback under its id.

        The drain calls it once per message, in send order.
        """
        # receive_batch is accepted and ignored: the ledger's network
        # micro (benchmarks/ledger/micro.py) still passes a handler.
        if node_id in self._handlers:
            raise OverlayError(f"node {node_id} already registered")
        self._handlers[node_id] = receive

    def unregister(self, node_id: int) -> None:
        """Detach a node; subsequent transmissions to it are dropped."""
        self._handlers.pop(node_id, None)

    def is_alive(self, node_id: int) -> bool:
        """True if a receive callback is registered for ``node_id``.

        Routing layers use this as a stand-in for the timeout-and-retry
        a deployed system would perform on a dead next hop.
        """
        return node_id in self._handlers

    def transmit(self, src: int, dst: int, message: OverlayMessage) -> None:
        """Send ``message`` one hop from ``src`` to ``dst``.

        The hop is counted (by kind, and against the message's request,
        whose trace its first send opens when no ``request`` event did)
        and announced even if it is lost or the destination has crashed
        — the sender cannot know.  The message joins ``dst``'s bucket of
        the wave landing at its arrival time.
        """
        now = self._sim.now
        if self._loss_rate > 0 and self._loss_rng.random() < self._loss_rate:
            self._lost_counter.inc()
            arrival = None
        else:
            delay = self._fixed_delay
            if delay is None:
                delay = self._delay.sample(src, dst)
            arrival = now + delay
        kind = message.kind
        self._sends_by_kind[kind] += 1
        request_id = message.request_id
        traces = self._traces
        if request_id in traces:
            traces[request_id].one_hop_messages += 1
        else:
            self._recorder.messages.begin_request(
                kind, request_id, now
            ).one_hop_messages = 1
        for fn in self.tap.send:
            fn(message, src, dst, now, arrival)
        if arrival is None:
            return
        wave = (
            self._wave if arrival == self._wave_at else self._wave_for(arrival, dst)
        )
        if dst in wave:
            wave[dst].append(message)
        else:
            wave[dst] = [message]

    def _wave_for(self, arrival: float, dst: int) -> Wave:
        """The wave ``dst``'s message landing at ``arrival`` joins.

        Memoized; a new wave is opened and its (single) drain event
        scheduled.  Here every destination of an instant shares one
        wave; ``dst`` is for :class:`ShardNetwork`, whose destinations
        in another shard do not.
        """
        waves = self._waves
        if arrival in waves:
            wave = waves[arrival]
        else:
            wave = waves[arrival] = {}
            self._schedule_at(arrival, self._drain, arrival)
        self._wave_at = arrival
        self._wave = wave
        return wave

    def _drain(self, arrival: float) -> None:
        """Deliver one wave: buckets by first send, each in send order.

        The wave is detached (and the memo dropped) first, so a
        receiver that transmits at zero delay starts a fresh wave
        (matching the strict happens-after of per-message events), and
        the handler is re-fetched per message — ``in`` and a subscript,
        where ``get`` would be a call — so an unregistration by an
        earlier message drops the rest of the bucket and a node that
        joined under the id since receives it.
        """
        wave = self._waves.pop(arrival)
        self._wave_at = None
        handlers = self._handlers
        tap = self.tap
        for dst in wave:
            bucket = wave[dst]
            for fn in tap.drain:
                fn(dst, len(bucket))
            for message in bucket:
                if dst in handlers:
                    handlers[dst](message)
                else:
                    self._dropped_counter.inc()
                    for fn in tap.drop:
                        fn(message, dst, arrival)


class ShardNetwork(Network):
    """The network substrate of one shard worker (see :mod:`repro.sim.shard`).

    A shard owns a contiguous arc of the identifier ring.  Every
    transmission is :meth:`Network.transmit` — counted, announced on the
    tap and stamped with its arrival time at transmit time, just as in the
    serial run — and only where it lands differs: a destination inside
    the arc joins the local wave of its arrival instant, a destination
    outside it joins the same-shaped wave of an *outbox* that no drain
    is scheduled for.  The barrier coordinator collects the outbox once
    per conservative window and the receiving shard injects it into its
    own waves, so a remote message is drained by the same loop, under
    the same liveness re-check, as a local one.

    Shard workers run loss-free on the null (disabled) telemetry, so
    the cross-shard hop is identical to a local one in everything the
    recorder can see.
    """

    def __init__(
        self,
        sim: Simulator,
        delay_model: DelayModel | None = None,
        recorder: MetricsRecorder | None = None,
        local: "set[int] | frozenset[int]" = frozenset(),
    ) -> None:
        super().__init__(sim, delay_model, recorder)
        self._local = frozenset(local)
        self._outbox: dict[float, Wave] = {}

    def _wave_for(self, arrival: float, dst: int) -> Wave:
        """Local destinations share the instant's wave, remote ones its
        outbox wave.  Never memoized: the next send of the instant may
        land on the other side of the shard boundary."""
        local = dst in self._local
        waves = self._waves if local else self._outbox
        if arrival in waves:
            return waves[arrival]
        wave = waves[arrival] = {}
        if local:
            self._schedule_at(arrival, self._drain, arrival)
        return wave

    def drain_outbox(self) -> list[tuple[int, float, OverlayMessage]]:
        """Detach and return the cross-shard sends of the last window.

        Ordered by arrival instant (first send first), then as a drain
        would deliver them: the waves the receiver builds from this are
        the ones send order builds.
        """
        outbox = self._outbox
        self._outbox = {}
        return [
            (dst, arrival, message)
            for arrival, wave in outbox.items()
            for dst, bucket in wave.items()
            for message in bucket
        ]

    def inject(self, items: list[tuple[int, float, OverlayMessage]]) -> None:
        """Enqueue remote messages into the local waves.

        Called by the coordinator between windows, in the deterministic
        merge order (source shard id, then outbox order).  Every
        arrival lies at or beyond the *next* window's start, which is
        strictly ahead of this worker's clock — so ``schedule_at`` is always
        valid, and messages joining an existing bucket land after that
        bucket's locally-sent messages, in merge order.
        """
        for dst, arrival, message in items:
            wave = self._wave_for(arrival, dst)
            if dst in wave:
                wave[dst].append(message)
            else:
                wave[dst] = [message]
