"""Sharded parallel execution of one simulation run.

The identifier ring is partitioned into K contiguous arcs; each arc's
event loop runs in its own worker (a forked process, or inline for
debugging and K=1 parity checks) over its own
:class:`~repro.sim.kernel.Simulator`.  Workers advance in lockstep
through *conservative windows*: the one-hop network delay is a
lookahead guarantee — no cross-shard message sent at or after the
window start ``t0`` can arrive before ``t0 + delay`` — so every worker
may safely drain ``[t0, t0 + delay)`` without hearing from its peers.
At the window barrier the coordinator collects each shard's outbox
(cross-shard sends already stamped with their arrival time, see
:class:`~repro.overlay.network.ShardNetwork`) and routes it into the
destination shards' waves, where the network's one drain per arrival
instant delivers remote and local messages alike.

Determinism — every K reproduces the serial run:

- With K=1 nothing ever crosses a shard boundary and every event fires
  in the same (time, seq) order as the serial kernel.
- With K > 1, remote messages are injected in (source shard id, outbox
  order) order, after the destination's own same-instant sends — a fixed
  merge order.  Request ids are drawn from disjoint residue classes
  (``itertools.count(shard + 1, num_shards)``; K=1 is exactly the serial
  ``count(1)``), so no two shards mint the same id, and the behavior
  fingerprint contains no request id.
- Each worker's recorder opens a request's trace at whichever of its
  events it sees first — begun here, a hop forwarded here, or a terminal
  delivery here — and the partials merge field-wise.  So the merged
  fingerprint is bit-for-bit that of a serial
  :meth:`~repro.workload.trace.Trace.replay` of the same trace, for any
  K.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from typing import TYPE_CHECKING, Sequence

from repro.core.system import PubSubSystem
from repro.errors import ConfigurationError
from repro.metrics.memory import peak_rss_bytes, reset_peak_rss
from repro.metrics.recorder import MetricsRecorder
from repro.overlay import api as overlay_api
from repro.overlay.ids import KeySpace
from repro.overlay.network import FixedDelay, ShardNetwork
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.trace import Trace, TraceOp, schedule_ops

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig


def ring_node_ids(config: "ExperimentConfig") -> list[int]:
    """The run's ring membership, in the serial builder's sample order.

    Every worker must insert the same ids in the same order (the CAN
    tessellation depends on insertion order), and the workload trace
    must draw injection nodes from the same population — so the
    ``ring`` substream sample of
    :func:`repro.experiments.runner.build_system` is reproduced here
    verbatim.
    """
    keyspace = KeySpace(config.key_bits)
    return RandomStreams(config.seed).stream("ring").sample(
        range(keyspace.size), config.nodes
    )


def snapshot_times(horizon: float, samples: int) -> list[float]:
    """When a run samples its storage, on either kernel: with expiration
    the figures' quantity is the occupancy *during* the run (Figs. 6, 8),
    not the post-horizon residue."""
    return [horizon * sample / samples for sample in range(1, samples + 1)]


def partition_ring(
    node_ids: Sequence[int], num_shards: int
) -> tuple[list[frozenset[int]], dict[int, int]]:
    """Split the ring into ``num_shards`` contiguous identifier arcs.

    Returns the per-shard id sets (ascending-arc order) and the
    ``node id -> shard`` map; arcs are near-equal in node count.
    Contiguity keeps intra-shard routing hops (successor walks, finger
    chains within the arc) local, which is what makes the conservative
    windows worth their barrier.
    """
    if num_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {num_shards}")
    if num_shards > len(node_ids):
        raise ConfigurationError(
            f"{num_shards} shards for {len(node_ids)} nodes: every shard "
            "needs at least one node"
        )
    ordered = sorted(node_ids)
    n = len(ordered)
    bounds = [n * shard // num_shards for shard in range(num_shards + 1)]
    locals_: list[frozenset[int]] = []
    shard_of: dict[int, int] = {}
    for shard in range(num_shards):
        arc = ordered[bounds[shard]:bounds[shard + 1]]
        locals_.append(frozenset(arc))
        for node_id in arc:
            shard_of[node_id] = shard
    return locals_, shard_of


@dataclasses.dataclass
class ShardResult:
    """Final payload one worker hands back at the horizon."""

    recorder: MetricsRecorder
    events_processed: int
    #: Worker-process RSS high-water mark (bytes).  Meaningful in fork
    #: mode, where each worker resets its mark at startup; inline
    #: workers share the coordinator process and report its peak.
    peak_rss_bytes: int


class ShardWorker:
    """One shard's full simulation stack plus its barrier protocol.

    The stack is :func:`repro.experiments.runner.build_system`'s — the
    overlay and the mapping come from the same two recipes on the
    configuration — except the network is a :class:`ShardNetwork` and
    only the local arc's node objects are materialized
    (``build_ring(..., local=...)`` records full ring membership
    everywhere so routing geometry agrees, but registers handlers and
    pub/sub state for local ids only).
    """

    def __init__(
        self,
        config: "ExperimentConfig",
        shard: int,
        num_shards: int,
        ring_ids: list[int],
        local: frozenset[int],
        ops: list[TraceOp],
        snapshots: Sequence[float],
    ) -> None:
        # Disjoint residue classes: shard s mints s+1, s+1+K, s+1+2K, …
        # K=1 degenerates to the serial count(1) stream.
        self._counter = itertools.count(shard + 1, num_shards)
        sim = Simulator()
        network = ShardNetwork(
            sim, FixedDelay(config.message_delay), local=local
        )
        overlay = config.build_overlay(sim, network)
        overlay.build_ring(ring_ids, local=local)
        system = PubSubSystem(
            sim, overlay, config.build_mapping(), config.pubsub
        )
        for time in snapshots:
            sim.schedule_at(time, system.snapshot_storage)
        schedule_ops(system, ops)  # this arc's slice of the trace
        self.sim = sim
        self.network = network
        self.system = system

    # -- barrier protocol ---------------------------------------------------

    def poll(self, injections: list) -> float | None:
        """Inject last window's remote arrivals; report the next event."""
        if injections:
            self.network.inject(injections)
        return self.sim.next_event_time()

    def run_window(self, bound: float) -> tuple[list, int]:
        """Drain ``[now, bound)``; return (outbox, events fired)."""
        previous = overlay_api._request_counter
        overlay_api._request_counter = self._counter
        try:
            fired = self.sim.run_before(bound)
        finally:
            overlay_api._request_counter = previous
        return self.network.drain_outbox(), fired

    def finish(self, horizon: float) -> ShardResult:
        """Run out the clock to the horizon and snapshot final state.

        Cross-shard sends made during this last stretch necessarily
        arrive after the horizon (the coordinator only enters the
        finish phase once every remaining event lies within one delay
        of it), so the final outbox is discarded — exactly the
        in-flight truncation a serial ``run_until(horizon)`` performs.
        """
        previous = overlay_api._request_counter
        overlay_api._request_counter = self._counter
        try:
            self.sim.run_until(horizon)
        finally:
            overlay_api._request_counter = previous
        self.network.drain_outbox()
        self.system.snapshot_storage()
        return ShardResult(
            recorder=self.system.recorder,
            events_processed=self.sim.events_processed,
            peak_rss_bytes=peak_rss_bytes(),
        )


class _InlineShard:
    """Same submit/result surface as a forked worker, in-process."""

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self._result: object = None

    def submit(self, op: str, arg) -> None:
        if op == "poll":
            self._result = self._worker.poll(arg)
        elif op == "run":
            self._result = self._worker.run_window(arg)
        else:
            self._result = self._worker.finish(arg)

    def result(self):
        result = self._result
        self._result = None
        return result

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def _worker_main(conn, config, shard, num_shards, ring_ids, local, ops,
                 snapshots) -> None:
    """Forked worker loop: build the stack, then serve barrier requests."""
    # Start the RSS high-water mark at the post-fork footprint so the
    # final ShardResult reports this worker's own peak (stack build
    # plus run), not whatever the parent had touched before forking.
    reset_peak_rss()
    worker = ShardWorker(
        config, shard, num_shards, ring_ids, local, ops, snapshots
    )
    while True:
        op, arg = conn.recv()
        if op == "poll":
            conn.send(worker.poll(arg))
        elif op == "run":
            conn.send(worker.run_window(arg))
        else:
            conn.send(worker.finish(arg))
            conn.close()
            return


class _ForkShard:
    """Coordinator-side handle of one forked worker.

    The fork start method shares the parent's memory copy-on-write, so
    the (potentially large) trace and ring are never pickled; only
    outbox batches and the final :class:`ShardResult` cross the pipe.
    """

    def __init__(self, ctx, args: tuple) -> None:
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main, args=(child_conn, *args), daemon=True
        )
        self._process.start()
        child_conn.close()

    def submit(self, op: str, arg) -> None:
        self._conn.send((op, arg))

    def result(self):
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join()


# -- the coordinator --------------------------------------------------------


@dataclasses.dataclass
class ShardRunReport:
    """Merged outcome of one sharded run.

    Attributes:
        recorder: Metrics merged across shards in shard order.
        num_shards: K.
        barrier_rounds: Conservative windows executed.
        remote_messages: One-hop messages that crossed a shard boundary.
        barrier_stalls: (shard, window) pairs that fired zero events —
            the load-imbalance signal of the tick-barrier design.
        events_per_shard: Kernel events fired by each worker.
        peak_rss_by_shard: Each worker's RSS high-water mark in bytes
            (per forked process; inline workers all report the shared
            coordinator process).
        load_by_shard: One-hop messages sent by each shard's nodes,
            read from the per-shard recorders before the merge.
    """

    recorder: MetricsRecorder
    num_shards: int
    barrier_rounds: int
    remote_messages: int
    barrier_stalls: int
    events_per_shard: list[int]
    peak_rss_by_shard: list[int]
    load_by_shard: list[int]

    @property
    def load_imbalance(self) -> float:
        """Max/median shard load ratio (0.0 when the median is zero)."""
        if not self.load_by_shard:
            return 0.0
        ordered = sorted(self.load_by_shard)
        n = len(ordered)
        mid = n // 2
        median = (
            ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        )
        if median <= 0:
            return 0.0
        return ordered[-1] / median


def run_sharded(
    config: "ExperimentConfig",
    trace: Trace,
    num_shards: int,
    *,
    mode: str = "fork",
    storage_samples: int = 24,
) -> ShardRunReport:
    """Execute a trace across ``num_shards`` parallel shard workers.

    Args:
        config: The experiment configuration.
        trace: The full pre-generated workload trace.
        num_shards: K; 1 reproduces a serial replay bit for bit.
        mode: ``"fork"`` (worker processes) or ``"inline"`` (same
            process; debugging, and exact-parity tests without fork).
        storage_samples: Periodic storage snapshots per worker, on
            :func:`snapshot_times` of the trace's own horizon.
    """
    if mode not in ("fork", "inline"):
        raise ConfigurationError(f"unknown shard mode {mode!r}")
    delay = config.message_delay
    if num_shards > 1 and delay <= 0:
        raise ConfigurationError(
            "sharded execution needs message_delay > 0: the one-hop delay "
            "is the conservative window's lookahead"
        )
    ring_ids = ring_node_ids(config)
    locals_, shard_of = partition_ring(ring_ids, num_shards)
    horizon = trace.horizon(config.pubsub.buffer_period)
    per_shard_ops: list[list[TraceOp]] = [[] for _ in range(num_shards)]
    for index, op in enumerate(trace.ops):
        if op.kind not in ("sub", "pub"):
            raise ConfigurationError(
                f"trace op {index} is a {op.kind!r}: shard arcs are fixed, so "
                "a trace with membership ops runs on the serial kernel only"
            )
        per_shard_ops[shard_of[op.node]].append(op)
    snapshots = snapshot_times(horizon, storage_samples)

    workers: list[_InlineShard | _ForkShard] = []
    if mode == "inline":
        for shard in range(num_shards):
            workers.append(_InlineShard(ShardWorker(
                config, shard, num_shards, ring_ids, locals_[shard],
                per_shard_ops[shard], snapshots,
            )))
    else:
        ctx = multiprocessing.get_context("fork")
        for shard in range(num_shards):
            workers.append(_ForkShard(ctx, (
                config, shard, num_shards, ring_ids, locals_[shard],
                per_shard_ops[shard], snapshots,
            )))

    rounds = 0
    remote = 0
    stalls = 0
    injections: list[list] = [[] for _ in range(num_shards)]
    try:
        # A lone shard owns every inbox: no message can cross a
        # boundary, so the whole run is one serial finish phase with
        # zero barrier overhead (this is the K=1 parity path).
        while num_shards > 1:
            for shard, worker in enumerate(workers):
                worker.submit("poll", injections[shard])
            next_times = [worker.result() for worker in workers]
            live = [time for time in next_times if time is not None]
            t0 = min(live) if live else None
            if t0 is None or t0 > horizon:
                break
            bound = t0 + delay
            if bound > horizon:
                # Every remaining event lies within one delay of the
                # horizon: no cross-shard send from here on can arrive
                # in time, so the workers can run out independently.
                break
            for worker in workers:
                worker.submit("run", bound)
            injections = [[] for _ in range(num_shards)]
            rounds += 1
            for worker in workers:
                outbox, fired = worker.result()
                if fired == 0:
                    stalls += 1
                for item in outbox:
                    injections[shard_of[item[0]]].append(item)
                remote += len(outbox)
        for worker in workers:
            worker.submit("finish", horizon)
        results: list[ShardResult] = [worker.result() for worker in workers]
    finally:
        for worker in workers:
            worker.close()

    # Per-shard load must be read before the merge collapses the
    # per-shard recorders into one; total one-hop sends is the load
    # proxy the skew observatory uses for nodes.
    load_by_shard = [result.recorder.messages.total_sends() for result in results]
    recorder = MetricsRecorder()
    for result in results:
        recorder.merge_from(result.recorder)
    return ShardRunReport(
        recorder=recorder,
        num_shards=num_shards,
        barrier_rounds=rounds,
        remote_messages=remote,
        barrier_stalls=stalls,
        events_per_shard=[result.events_processed for result in results],
        peak_rss_by_shard=[result.peak_rss_bytes for result in results],
        load_by_shard=load_by_shard,
    )
