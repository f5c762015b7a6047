"""Simulated point-to-point network with latency and hop accounting.

Every inter-node transmission in the overlay goes through
:meth:`Network.transmit`, which (a) charges one one-hop message of the
message's kind to its request id, and (b) enqueues the message for the
receiver after a delay drawn from the configured delay model.  The
paper's evaluation fixes the per-hop delay at 50 ms (Section 5.1).

Transmissions addressed to a node that has crashed are silently dropped
(the send is still counted — the bytes left the sender).

Delivery is *one kernel event per arrival instant*.  The paper's
evaluation fixes the hop delay, so everything sent while the clock
stands at ``t`` lands at ``t + delay``, and the m-cast primitive
(Fig. 4) fans a publication out into waves of one-hop messages that
do.  The network keeps a *wave* per arrival instant — ``arrival ->
{dst -> [messages]}`` — and the instant's first send schedules its one
non-cancellable drain.  The drain walks the wave in insertion order:
buckets in order of their first send, the messages of a bucket in send
order, the destination's liveness re-read before every message, so a
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
  (so do ``events_processed``, ``pending``, ``step()`` and
  ``run(max_events)``), and a wave fires at the ``(time, seq)`` of its
  first send: an unrelated event scheduled for exactly a wave's
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
from repro.telemetry import Telemetry, current as current_telemetry
from repro.telemetry.tracing import LOST, Tracer


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
                this network; defaults to the (disabled, free) ambient
                telemetry — see :func:`repro.telemetry.current`.
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
        self._telemetry = telemetry if telemetry is not None else current_telemetry()
        registry = self._telemetry.registry
        self._dropped_counter = registry.counter("network.dropped")
        self._lost_counter = registry.counter("network.lost")
        # Tracing guard: None when disabled, so the per-transmission
        # cost of the whole telemetry layer is one identity check.
        self._tracer: Tracer | None = (
            self._telemetry.tracer if self._telemetry.enabled else None
        )
        # Load-attribution guard, same null-sink discipline: the meter
        # is only non-None on an enabled telemetry bundle.
        self._load = (
            self._telemetry.load if self._telemetry.enabled else None
        )
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
        self._record_send = self._recorder.messages.record_send
        self._call_at = sim.call_at
        self._fixed_delay: float | None = (
            self._delay._delay if type(self._delay) is FixedDelay else None
        )

    @property
    def sim(self) -> Simulator:
        """The simulation kernel this network schedules on."""
        return self._sim

    @property
    def recorder(self) -> MetricsRecorder:
        """The metrics recorder charged for every transmission."""
        return self._recorder

    @property
    def telemetry(self) -> Telemetry:
        """The observability sink of this network (and its overlays)."""
        return self._telemetry

    @property
    def active_tracer(self) -> Tracer | None:
        """The span tracer when tracing is enabled, else None.

        Overlays cache this so their delivery paths pay the same single
        ``is None`` guard as the transmit path.
        """
        return self._tracer

    @property
    def active_load(self):
        """The load meter when load metering is enabled, else None.

        Same caching contract as :attr:`active_tracer`: overlays read
        it once and guard each delivery with one identity check.
        """
        return self._load

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

        The hop is charged to the message's request id even if the
        destination has crashed (the sender cannot know).  The message
        joins ``dst``'s bucket of the wave landing at its arrival time.
        """
        now = self._sim.now
        self._record_send(message.kind, message.request_id, now)
        tracer = self._tracer
        load = self._load
        if load is not None:
            load.on_transmit(src)
        if self._loss_rate > 0 and self._loss_rng.random() < self._loss_rate:
            self._lost_counter.inc()
            if tracer is not None:
                message.trace = tracer.hop(
                    message.trace, message.request_id, message.kind.value,
                    src, dst, now, None, status=LOST,
                )
            return
        delay = self._fixed_delay
        if delay is None:
            delay = self._delay.sample(src, dst)
        arrival = now + delay
        if tracer is not None:
            # The new span's parent is whatever hop (or request root)
            # produced this copy; stamping the id back onto the envelope
            # keeps parentage exact through in-place forwarding.
            message.trace = tracer.hop(
                message.trace, message.request_id, message.kind.value,
                src, dst, now, arrival,
            )
        wave = self._wave if arrival == self._wave_at else self._wave_for(arrival)
        if dst in wave:
            wave[dst].append(message)
        else:
            wave[dst] = [message]

    def _wave_for(self, arrival: float) -> Wave:
        """The wave landing at ``arrival``, memoized; a new one is
        opened and its (single) drain event scheduled."""
        waves = self._waves
        if arrival in waves:
            wave = waves[arrival]
        else:
            wave = waves[arrival] = {}
            self._call_at(arrival, self._drain, arrival)
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
        load = self._load
        tracer = self._tracer
        for dst in wave:
            bucket = wave[dst]
            if load is not None:
                load.on_bucket_drain(dst, len(bucket))
            for message in bucket:
                if dst in handlers:
                    handlers[dst](message)
                else:
                    self._dropped_counter.inc()
                    if tracer is not None:
                        tracer.mark_dropped(message.trace)


class ShardNetwork(Network):
    """The network substrate of one shard worker (see :mod:`repro.sim.shard`).

    A shard owns a contiguous arc of the identifier ring.  Transmissions
    whose destination lies inside the arc behave exactly like the serial
    :class:`Network`; transmissions leaving the arc are *charged
    normally* (the send counter and the request trace see the hop at
    transmit time, just as in the serial run) but instead of entering
    the local inbox they are appended — already stamped with their
    arrival time — to an outbox the barrier coordinator drains once per
    conservative window.  The receiving shard injects them into its own
    waves, so a remote message is drained by the same loop, under the
    same liveness re-check, as a local one.

    Loss models and tracing are deliberately unsupported here: shard
    workers run loss-free with telemetry disabled (the coordinator owns
    the observable surface), which keeps the cross-shard hop identical
    to a local one in everything the metrics recorder can see.
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
        self._outbox: list[tuple[int, float, OverlayMessage]] = []
        # Per-node send meter for the execution profiler's rebalance
        # advisor (see repro.telemetry.profile).  Same null-sink
        # discipline as the tracer/LoadMeter guards above: None unless
        # the run is profiled, one identity check per transmit.
        self._profile_sends: dict[int, int] | None = None

    @property
    def local_ids(self) -> frozenset[int]:
        """The node ids whose inboxes live in this shard."""
        return self._local

    def meter_sends(self) -> dict[int, int]:
        """Enable per-node send metering; returns the live counter map.

        Counts every one-hop transmit by source node — local and
        cross-shard alike, so the aggregate over a shard's nodes equals
        the recorder's ``total_sends()`` for that shard.
        """
        if self._profile_sends is None:
            self._profile_sends = {}
        return self._profile_sends

    def transmit(self, src: int, dst: int, message: OverlayMessage) -> None:
        sends = self._profile_sends
        if sends is not None:
            sends[src] = sends.get(src, 0) + 1
        if dst in self._local:
            super().transmit(src, dst, message)
            return
        now = self._sim.now
        self._record_send(message.kind, message.request_id, now)
        delay = self._fixed_delay
        if delay is None:
            delay = self._delay.sample(src, dst)
        self._outbox.append((dst, now + delay, message))

    def drain_outbox(self) -> list[tuple[int, float, OverlayMessage]]:
        """Detach and return the cross-shard sends of the last window."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    def inject(self, items: list[tuple[int, float, OverlayMessage]]) -> None:
        """Enqueue remote messages into the local waves.

        Called by the coordinator between windows, in the deterministic
        merge order (source shard id, then send sequence).  Every
        arrival lies at or beyond the *next* window's start, which is
        strictly ahead of this worker's clock — so ``call_at`` is always
        valid, and messages joining an existing bucket land after that
        bucket's locally-sent messages, in merge order.
        """
        for dst, arrival, message in items:
            wave = self._wave if arrival == self._wave_at else self._wave_for(arrival)
            if dst in wave:
                wave[dst].append(message)
            else:
                wave[dst] = [message]
