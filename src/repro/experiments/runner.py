"""Build and execute one simulation run."""

from __future__ import annotations

import dataclasses
import gc

from repro.audit import AuditConfig, Auditor, AuditReport
from repro.core.system import PubSubSystem
from repro.experiments.config import ExperimentConfig
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.stats import Summary, summarize
from repro.overlay.api import MessageKind
from repro.overlay.network import FixedDelay, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import ring_node_ids, snapshot_times
from repro.telemetry import Telemetry
from repro.workload.trace import Trace

#: Periodic samples per run, on one schedule: storage occupancy (the
#: steady state of Figs. 6/8) and, when traced, the telemetry registry.
SAMPLES = 24

#: Structural probes per audited run when no probe period is given.
AUDIT_PROBES = 12


@dataclasses.dataclass
class RunResult:
    """Everything a figure harness needs from one run.

    Attributes:
        config: The configuration that produced this run.
        recorder: Full metrics (message traces, storage snapshots).
        subscriptions_sent / publications_sent: Injected counts.
        sub_hops / pub_hops / notify_hops: Per-request one-hop message
            summaries by request kind.
        notification_messages: Total notification one-hop messages
            (including COLLECT aggregation traffic).
        max_subscriptions_per_node / mean_subscriptions_per_node:
            Peak storage distribution sampled during the run (Figs. 6, 8).
        notification_delay: Publish-to-delivery latency summary (the
            buffering delay trade-off of Section 4.3.2).
        keys_per_subscription / keys_per_publication: Mean |SK| / |EK|
            observed over the injected workload (Section 5.2 narrative).
        audit: Invariant/delivery audit report, when the run was audited.
    """

    config: ExperimentConfig
    recorder: MetricsRecorder
    subscriptions_sent: int
    publications_sent: int
    sub_hops: Summary
    pub_hops: Summary
    notify_hops: Summary
    notification_messages: int
    max_subscriptions_per_node: int
    mean_subscriptions_per_node: float
    keys_per_subscription: float
    keys_per_publication: float
    notification_delay: Summary
    audit: AuditReport | None = None

    @property
    def notification_hops_per_publication(self) -> float:
        """Fig. 9(a)'s y-axis: notification+collect hops per publication."""
        if self.publications_sent == 0:
            return 0.0
        return self.notification_messages / self.publications_sent


def build_system(
    config: ExperimentConfig,
    streams: RandomStreams,
    telemetry: Telemetry | None = None,
) -> tuple[Simulator, PubSubSystem]:
    """Construct the full stack for a configuration (ring pre-built).

    Args:
        config: The experiment configuration.
        streams: Seeded random substreams for the run.
        telemetry: Optional observability sink; when omitted the stack
            uses the disabled, free ``NULL_TELEMETRY``.
    """
    sim = Simulator()
    network = Network(sim, FixedDelay(config.message_delay), telemetry=telemetry)
    if telemetry is not None and telemetry.enabled:
        sim.attach_telemetry(telemetry)
    overlay = config.build_overlay(sim, network)
    ring_rng = streams.stream("ring")
    overlay.build_ring(ring_rng.sample(range(overlay.keyspace.size), config.nodes))
    return sim, PubSubSystem(sim, overlay, config.build_mapping(), config.pubsub)


def generate_trace(config: ExperimentConfig) -> Trace:
    """The op list a configuration and its seed stand for, on every
    path that runs it (serial, sharded, ``repro trace``): generated over
    the run's ring from the ``workload`` substream."""
    return Trace.generate(
        config.workload,
        RandomStreams(config.seed).stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )


def _mean_keys(keys_of, items: list) -> float:
    return sum(len(keys_of(item)) for item in items) / len(items) if items else 0.0


def summarize_run(
    config: ExperimentConfig,
    trace: Trace,
    recorder: MetricsRecorder,
    audit: AuditReport | None = None,
) -> RunResult:
    """The one summary of a finished run, whichever kernel ran it."""
    messages = recorder.messages
    mapping = config.build_mapping()
    subscriptions, events = trace.subscriptions, trace.events
    return RunResult(
        config=config,
        recorder=recorder,
        subscriptions_sent=len(subscriptions),
        publications_sent=len(events),
        sub_hops=summarize(messages.hops_per_request(MessageKind.SUBSCRIPTION)),
        pub_hops=summarize(messages.hops_per_request(MessageKind.PUBLICATION)),
        notify_hops=summarize(messages.hops_per_request(MessageKind.NOTIFICATION)),
        notification_messages=messages.total_sends(MessageKind.NOTIFICATION)
        + messages.total_sends(MessageKind.COLLECT),
        max_subscriptions_per_node=recorder.storage.peak_max_per_node(),
        mean_subscriptions_per_node=recorder.storage.peak_mean_per_node(),
        keys_per_subscription=_mean_keys(mapping.subscription_keys, subscriptions),
        keys_per_publication=_mean_keys(mapping.event_keys, events),
        notification_delay=recorder.notification_delay_summary(),
        audit=audit,
    )


def run_experiment(
    config: ExperimentConfig,
    telemetry: Telemetry | None = None,
    audit: AuditConfig | None = None,
) -> RunResult:
    """Run one full simulation and summarize it.

    Deterministic in ``config`` (including the seed): the ring layout,
    the workload content and all arrival times derive from named
    substreams of the root seed.  The run is one op list
    (:func:`generate_trace`) executed to one horizon
    (:meth:`Trace.horizon`) on one storage-sample schedule;
    :func:`~repro.sim.shard.run_sharded` runs the same trace to the same
    horizon on the same schedule.

    An enabled ``telemetry`` also records a span per one-hop message and
    periodic registry samples on the simulated clock (read-only).  An
    ``audit`` config also runs the invariant auditor online (structural
    probes plus the shadow-ledger delivery oracle), findings in
    ``RunResult.audit`` and the telemetry export.

    The cycle collector is off while the run executes; its prior state
    is restored afterwards, and one collection frees the run's system.
    """
    # A run makes no cyclic garbage (tests/integration/
    # test_acyclic_run.py holds it to that), so the cycle collector
    # would only scan a growing heap and free nothing: it is off for the
    # run.  The system itself is cyclic (nodes and their overlay refer
    # to each other), so one collection after the run frees it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(config, telemetry, audit)
    finally:
        if collecting:
            gc.enable()
        gc.collect()


def _run(
    config: ExperimentConfig,
    telemetry: Telemetry | None,
    audit: AuditConfig | None,
) -> RunResult:
    trace = generate_trace(config)
    sim, system = build_system(config, RandomStreams(config.seed), telemetry)
    auditor = Auditor(system, audit) if audit is not None else None
    horizon = trace.horizon(config.pubsub.buffer_period)
    # Observers first, as in a shard worker: at an instant they share
    # with an op, both kernels sample before the op runs.
    traced = telemetry is not None and telemetry.enabled
    if traced:
        telemetry.sample(sim.now)  # t=0 baseline
    for time in snapshot_times(horizon, SAMPLES):
        sim.schedule_at(time, system.snapshot_storage)
        if traced:
            sim.schedule_at(time, telemetry.sample, time)
    if auditor is not None:
        period = audit.probe_period or horizon / AUDIT_PROBES
        auditor.schedule_probes(period, horizon=horizon)
    trace.replay(system)
    system.snapshot_storage()
    if traced:
        telemetry.sample(sim.now)  # final state after the horizon
    report = auditor.finalize() if auditor is not None else None
    return summarize_run(config, trace, system.recorder, report)
