"""Inline send accounting equals a count of every send.

``Network.transmit`` counts each one-hop send into the recorder's dicts
itself — by kind, and against its request's trace — with no observer
frame.  This holds those counts to an independent observer on the
``send`` tap event over a run that reaches every kind of traffic and
every way a send can fail: churn with replication (CONTROL), buffering
with collecting (COLLECT), each routing mode, a lossy network (a lost
send is still counted) and crashes with messages in flight (so is a
dropped one).  The sharded kernel merges per-shard recorders with
``merge_from``; its counts must add up to the serial run's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import PubSubConfig, PubSubSystem, RoutingMode
from repro.core.mappings import make_mapping
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, generate_trace
from repro.overlay.api import MessageKind, NeighborSide, OverlayMessage, next_request_id
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import run_sharded
from repro.workload.spec import ChurnSpec, WorkloadSpec
from repro.workload.trace import Trace

KS = KeySpace(13)


class SendTally:
    """Counts every ``send`` event by kind and by request."""

    def __init__(self) -> None:
        self.by_kind: Counter = Counter()
        self.by_request: Counter = Counter()
        self.lost = 0

    def on_send(self, message, src, dst, now, arrival) -> None:
        self.by_kind[message.kind] += 1
        self.by_request[message.request_id] += 1
        if arrival is None:
            self.lost += 1


@pytest.mark.parametrize("routing", list(RoutingMode))
def test_inline_counts_equal_a_tap_count_of_every_send(routing):
    sim = Simulator()
    network = Network(sim, loss_rate=0.02, loss_rng=random.Random(5))
    tally = SendTally()
    network.tap.attach(tally)
    overlay = ChordOverlay(sim, KS, network=network)
    overlay.build_ring(random.Random(3).sample(range(KS.size), 60))
    spec = WorkloadSpec()
    config = PubSubConfig(
        routing=routing, notification="collected", buffer_period=2.0,
        replication_factor=2,
    )
    system = PubSubSystem(
        sim, overlay, make_mapping("attribute-split", spec.make_space(), KS), config
    )
    trace = Trace.generate(
        spec, random.Random(4), overlay.node_ids(), 40, 60,
        churn=ChurnSpec(
            join_period=3.0, leave_period=4.0, crash_period=6.0, min_ring_size=30
        ),
        churn_rng=random.Random(6),
        keyspace_size=KS.size,
    )
    trace.replay(system)
    # The trace never unsubscribes: withdraw a few from live nodes.
    subscribed = [op for op in trace.ops if op.kind == "sub"]
    for op in [op for op in subscribed if overlay.is_alive(op.node)][:5]:
        system.unsubscribe(op.node, op.subscription)
    # A send to a node that crashes while it is in flight is dropped;
    # no request event opened its trace, so the send does.
    source = overlay.node_ids()[0]
    doomed = overlay.successor_of(source)
    overlay.send_to_neighbor(
        source,
        NeighborSide.SUCCESSOR,
        OverlayMessage(
            kind=MessageKind.CONTROL, payload=None,
            request_id=next_request_id(), origin=source,
        ),
    )
    system.crash_node(doomed)
    sim.run_until(sim.now + 5.0)

    stats = system.recorder.messages
    # Every kind of traffic and both failed-send paths were reached.
    assert all(tally.by_kind[kind] for kind in MessageKind), tally.by_kind
    assert network.lost == tally.lost > 0
    assert network.dropped > 0
    for kind in MessageKind:
        assert stats.total_sends(kind) == tally.by_kind[kind], kind
    assert stats.total_sends() == sum(tally.by_kind.values())
    assert set(tally.by_request) <= set(stats.traces)
    for request_id, trace in stats.traces.items():
        assert trace.one_hop_messages == tally.by_request[request_id], request_id


def test_merged_shard_recorders_sum_to_the_serial_counts():
    config = ExperimentConfig(
        nodes=120, subscriptions=60, publications=60, seed=20261018,
        pubsub=PubSubConfig(notification="collected", replication_factor=1),
    )
    trace = generate_trace(config)
    outcome = run_sharded(config, trace, 2, mode="inline")
    _, system = build_system(config, RandomStreams(config.seed))
    trace.replay(system)
    serial, merged = system.recorder.messages, outcome.recorder.messages
    assert outcome.remote_messages > 0  # the two shards did exchange sends
    assert merged.sends_by_kind == serial.sends_by_kind
    assert sum(outcome.load_by_shard) == serial.total_sends()
    # Request ids come from one process-wide counter, so the two runs
    # number their requests apart: compare each request's count by kind.
    assert sorted(
        (trace.kind.name, trace.one_hop_messages) for trace in merged.traces.values()
    ) == sorted(
        (trace.kind.name, trace.one_hop_messages) for trace in serial.traces.values()
    )
