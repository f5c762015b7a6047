"""Build and execute one simulation run."""

from __future__ import annotations

import dataclasses

from repro.audit import AuditConfig, Auditor, AuditReport
from repro.core.system import PubSubSystem
from repro.experiments.config import ExperimentConfig
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.stats import Summary, summarize
from repro.overlay.api import MessageKind
from repro.overlay.network import FixedDelay, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import (
    ShardRunReport,
    ring_node_ids,
    run_sharded,
)
from repro.telemetry import Telemetry
from repro.telemetry.profile import ShardProfiler
from repro.workload.driver import WorkloadDriver
from repro.workload.trace import Trace

#: Periodic storage samples per run (steady-state occupancy, Figs. 6/8).
STORAGE_SAMPLES = 24

#: Periodic telemetry registry samples per traced run (sim-time series).
TELEMETRY_SAMPLES = 24

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
        shard: The sharded kernel's merged run report (barrier stats,
            per-shard loads, and — when ``config.shard_profile`` — the
            execution profiler); None for serial runs.
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
    shard: ShardRunReport | None = None

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
            uses the ambient (by default disabled, free) telemetry.
    """
    sim = Simulator()
    network = Network(sim, FixedDelay(config.message_delay), telemetry=telemetry)
    if telemetry is not None and telemetry.enabled:
        sim.attach_telemetry(telemetry)
    overlay = config.build_overlay(sim, network)
    ring_rng = streams.stream("ring")
    overlay.build_ring(ring_rng.sample(range(overlay.keyspace.size), config.nodes))
    system = PubSubSystem(
        sim, overlay, config.build_mapping(), config.pubsub_config()
    )
    return sim, system


def run_sharded_experiment(
    config: ExperimentConfig,
    telemetry: Telemetry | None = None,
    audit: AuditConfig | None = None,
    shard_mode: str = "fork",
) -> RunResult:
    """Run one configuration on the sharded kernel (``config.shards``).

    The workload is pre-generated as a :class:`Trace` from the
    ``workload`` substream (same content model as the serial driver,
    materialized up front so every shard schedules its slice
    identically) and executed by :func:`repro.sim.shard.run_sharded`.
    Structural audit probes are replaced by the post-hoc delivery
    oracle replay; everything else in the result mirrors
    :func:`run_experiment`.
    """
    streams = RandomStreams(config.seed)
    node_ids = ring_node_ids(config)
    trace = Trace.generate(
        config.workload,
        streams.stream("workload"),
        node_ids,
        config.subscriptions,
        config.publications,
    )
    profiler = (
        ShardProfiler(config.shards) if config.shard_profile else None
    )
    outcome = run_sharded(
        config,
        trace,
        config.shards,
        mode=shard_mode,
        telemetry=telemetry,
        audit=audit,
        storage_samples=STORAGE_SAMPLES,
        profile=profiler,
        cuts=config.shard_cuts,
    )
    recorder = outcome.recorder
    mapping = config.build_mapping()
    subscriptions = [
        op.subscription for op in trace.ops if op.kind == "sub"
    ]
    events = [op.event for op in trace.ops if op.kind == "pub"]
    sub_key_counts = [len(mapping.subscription_keys(s)) for s in subscriptions]
    pub_key_counts = [len(mapping.event_keys(e)) for e in events]
    notify_total = recorder.messages.total_sends(
        MessageKind.NOTIFICATION
    ) + recorder.messages.total_sends(MessageKind.COLLECT)
    return RunResult(
        config=config,
        recorder=recorder,
        subscriptions_sent=len(subscriptions),
        publications_sent=len(events),
        sub_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.SUBSCRIPTION)
        ),
        pub_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.PUBLICATION)
        ),
        notify_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.NOTIFICATION)
        ),
        notification_messages=notify_total,
        max_subscriptions_per_node=recorder.storage.peak_max_per_node(),
        mean_subscriptions_per_node=recorder.storage.peak_mean_per_node(),
        keys_per_subscription=(
            sum(sub_key_counts) / len(sub_key_counts) if sub_key_counts else 0.0
        ),
        keys_per_publication=(
            sum(pub_key_counts) / len(pub_key_counts) if pub_key_counts else 0.0
        ),
        notification_delay=recorder.notification_delay_summary(),
        audit=outcome.audit,
        shard=outcome,
    )


def run_experiment(
    config: ExperimentConfig,
    telemetry: Telemetry | None = None,
    audit: AuditConfig | None = None,
) -> RunResult:
    """Run one full simulation and summarize it.

    Deterministic in ``config`` (including the seed): the ring layout,
    the workload content and all arrival times derive from named
    substreams of the root seed.  Passing an enabled ``telemetry``
    additionally records spans for every one-hop message and periodic
    registry samples on the simulated clock; the workload itself is
    unchanged (sampling callbacks read state, never mutate it).
    Passing an ``audit`` config additionally runs the online invariant
    auditor: periodic structural probes plus a shadow-ledger delivery
    oracle, with findings in ``RunResult.audit`` (and in the telemetry
    JSONL export, when telemetry is also enabled).

    With ``config.shards > 1`` the run is dispatched to the sharded
    kernel (see :func:`run_sharded_experiment`).
    """
    if config.shards > 1:
        return run_sharded_experiment(config, telemetry=telemetry, audit=audit)
    streams = RandomStreams(config.seed)
    sim, system = build_system(config, streams, telemetry=telemetry)
    auditor = Auditor(system, audit) if audit is not None else None
    driver = WorkloadDriver(
        system,
        config.workload,
        streams.stream("workload"),
        max_subscriptions=config.subscriptions,
        max_publications=config.publications,
    )
    # Sample the storage distribution periodically: with subscription
    # expiration, the figures' quantity is the steady-state occupancy
    # during the run (Figs. 6, 8), not the post-horizon residue.
    horizon = driver.estimated_duration()
    for sample in range(1, STORAGE_SAMPLES + 1):
        sim.schedule_at(horizon * sample / STORAGE_SAMPLES, system.snapshot_storage)
    if telemetry is not None and telemetry.enabled:
        telemetry.sample(sim.now)  # t=0 baseline
        for sample in range(1, TELEMETRY_SAMPLES + 1):
            sim.schedule_at(
                horizon * sample / TELEMETRY_SAMPLES,
                telemetry.sample,
                horizon * sample / TELEMETRY_SAMPLES,
            )
    if auditor is not None:
        period = audit.probe_period or horizon / AUDIT_PROBES
        auditor.schedule_probes(period, horizon=horizon)
    driver.run_to_completion(horizon=horizon)
    system.snapshot_storage()
    if telemetry is not None and telemetry.enabled:
        telemetry.sample(sim.now)  # final state after the horizon
    audit_report = auditor.finalize() if auditor is not None else None

    recorder = system.recorder
    mapping = system.mapping
    sub_key_counts = [
        len(mapping.subscription_keys(s)) for s in driver.injected_subscriptions
    ]
    pub_key_counts = [len(mapping.event_keys(e)) for e in driver.injected_events]
    keys_per_pub = (
        sum(pub_key_counts) / len(pub_key_counts) if pub_key_counts else 0.0
    )

    notify_total = recorder.messages.total_sends(
        MessageKind.NOTIFICATION
    ) + recorder.messages.total_sends(MessageKind.COLLECT)
    return RunResult(
        config=config,
        recorder=recorder,
        subscriptions_sent=driver.subscriptions_sent,
        publications_sent=driver.publications_sent,
        sub_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.SUBSCRIPTION)
        ),
        pub_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.PUBLICATION)
        ),
        notify_hops=summarize(
            recorder.messages.hops_per_request(MessageKind.NOTIFICATION)
        ),
        notification_messages=notify_total,
        max_subscriptions_per_node=recorder.storage.peak_max_per_node(),
        mean_subscriptions_per_node=recorder.storage.peak_mean_per_node(),
        keys_per_subscription=(
            sum(sub_key_counts) / len(sub_key_counts) if sub_key_counts else 0.0
        ),
        keys_per_publication=keys_per_pub,
        notification_delay=recorder.notification_delay_summary(),
        audit=audit_report,
    )
