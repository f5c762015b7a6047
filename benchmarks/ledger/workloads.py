"""The five ledger workloads: definitions, seeded inputs, system builder.

Each workload fixes a ring, a pub/sub configuration and an operation
count; ``generate_inputs`` turns a seed into the complete op list
(subscribe / publish / join / leave / crash, each with its simulated
time), and ``build_system`` constructs the stack those ops are injected
into.  The program under test receives only the generated ops.

Sizes are part of the metric definitions — the exact counts in the
README are only comparable at these sizes — so ``scaled`` exists for
``--smoke`` alone.
"""

from __future__ import annotations

import bisect
import dataclasses
import random

from repro.core.mappings import Discretization, make_mapping
from repro.core.system import PubSubConfig, PubSubSystem
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

#: Simulated seconds run past the last op so in-flight traffic settles
#: (the same slack ``Trace.replay`` uses).
HORIZON_SLACK = 60.0


@dataclasses.dataclass(frozen=True)
class ChurnPlan:
    """Poisson membership churn applied while the workload runs.

    Periods are mean simulated seconds between events; ``floor`` is the
    ring size below which departures are suppressed; ``protected`` is
    how many nodes (the subscribers) churn never removes, so that a
    missed notification is the system's loss and not the workload's.
    """

    join_period: float
    leave_period: float
    crash_period: float
    floor: int
    protected: int


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fixed-size benchmark workload."""

    name: str
    why: str
    overlay: str
    nodes: int
    key_bits: int
    spec: WorkloadSpec
    subscriptions: int
    publications: int
    cache_capacity: int = 128
    config: PubSubConfig = dataclasses.field(default_factory=PubSubConfig)
    discretization_width: int = 1
    churn: ChurnPlan | None = None
    #: Spread the node ids evenly, one at a seeded position inside each
    #: of ``nodes`` equal arcs.  On a small ring a uniform sample gives
    #: arcs that differ tenfold, and which node owns the hot keys then
    #: decides the metrics more than the code does.
    even_ring: bool = False

    @property
    def ops(self) -> int:
        """Workload operations: one per subscribe or publish call."""
        return self.subscriptions + self.publications

    def scaled(self, scale: float) -> "Workload":
        """The same shape at ``scale`` times the size (``--smoke``)."""
        if scale == 1:
            return self
        nodes = max(32, int(self.nodes * scale))
        churn = self.churn
        if churn is not None:
            churn = dataclasses.replace(
                churn,
                floor=max(16, int(churn.floor * scale)),
                protected=max(4, int(churn.protected * scale)),
            )
        return dataclasses.replace(
            self,
            nodes=nodes,
            subscriptions=max(20, int(self.subscriptions * scale)),
            publications=max(50, int(self.publications * scale)),
            churn=churn,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-chord",
            why="paper 5.1 steady state on Chord n=2000: routing, kernel and "
            "network buckets do the work; matching is about 6%",
            overlay="chord",
            nodes=2000,
            key_bits=13,
            spec=WorkloadSpec(),
            subscriptions=400,
            publications=9000,
        ),
        Workload(
            name="match-dense",
            why="6000 Zipf partially-defined subscriptions on 64 nodes: "
            "matcher, covering and stores dominate; routing is 2-3 hops",
            overlay="chord",
            nodes=64,
            key_bits=13,
            spec=WorkloadSpec(
                selective_attributes=(0, 1),
                zipf_exponent=1.6,
                constraint_probability=0.5,
                subscription_period=0.02,
                matching_probability=0.9,
                temporal_locality=0.9,
                publication_mean_period=1.0,
            ),
            subscriptions=6000,
            publications=5000,
            even_ring=True,
        ),
        Workload(
            name="churn-chord",
            why="Chord n=400 under Poisson joins, leaves and crashes with "
            "replication: the overlay is written as well as read",
            overlay="chord",
            nodes=400,
            key_bits=13,
            spec=WorkloadSpec(
                subscription_period=1.0, publication_mean_period=0.5
            ),
            subscriptions=400,
            publications=6000,
            config=PubSubConfig(
                replication_factor=2, failure_detection_delay=0.3
            ),
            churn=ChurnPlan(
                join_period=2.0,
                leave_period=2.0,
                crash_period=10.0,
                floor=200,
                protected=40,
            ),
        ),
        Workload(
            name="steady-can",
            why="steady-chord's workload on CAN n=2000: the only workload "
            "that executes overlay.can; Chord and matcher changes must not move it",
            overlay="can",
            nodes=2000,
            key_bits=13,
            spec=WorkloadSpec(),
            subscriptions=400,
            publications=4500,
        ),
        Workload(
            name="scale-cold",
            why="Chord n=20000, working set beyond every cache, most nodes "
            "touched once: lazy table builds, per-node state and set-up dominate",
            overlay="chord",
            nodes=20000,
            key_bits=17,
            spec=WorkloadSpec(
                subscription_ttl=20.0,
                subscription_period=0.02,
                publication_mean_period=0.004,
            ),
            subscriptions=1000,
            publications=3000,
            cache_capacity=1024,
            config=PubSubConfig(matcher="vector", default_ttl=20.0),
            discretization_width=256,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Op:
    """One generated operation.

    ``kind`` is ``sub`` / ``pub`` / ``join`` / ``leave`` / ``crash``.
    ``node`` is the injecting node (already redirected to the key's
    live owner when the trace's node had left the ring).
    """

    time: float
    kind: str
    node: int
    subscription: object = None
    event: object = None
    ttl: float | None = None


@dataclasses.dataclass
class Inputs:
    """Everything the seed determines for one workload."""

    ring_ids: list[int]
    ops: list[Op]
    horizon: float
    #: Nodes churn never removes; every subscriber of a churn workload
    #: is one of them, so the oracle may treat subscribers as alive.
    protected: frozenset[int]


def ring_ids_for(workload: Workload, seed: int) -> list[int]:
    """The seeded ring membership (sample order; CAN depends on it)."""
    rng = random.Random(f"{seed}:{workload.name}:ring")
    size = 1 << workload.key_bits
    if not workload.even_ring:
        return rng.sample(range(size), workload.nodes)
    arc = size // workload.nodes
    ids = [i * arc + rng.randrange(arc) for i in range(workload.nodes)]
    rng.shuffle(ids)
    return ids


def generate_inputs(
    workload: Workload, seed: int, ring_ids: list[int]
) -> Inputs:
    """All operations of one run, derived from the seed alone."""
    rng = random.Random(f"{seed}:{workload.name}:trace")
    trace = Trace.generate(
        workload.spec,
        rng,
        sorted(ring_ids),
        workload.subscriptions,
        workload.publications,
    )
    trace_ops = trace.ops
    last = trace_ops[-1].time
    churn = workload.churn
    membership: list[Op] = []
    protected: list[int] = []
    if churn is not None:
        protected = sorted(ring_ids)[:: max(1, workload.nodes // churn.protected)]
        protected = protected[: churn.protected]
        membership = _churn_schedule(
            workload, churn, seed, ring_ids, set(protected), last
        )
    # Merge, tracking live membership so publishers that left are
    # replaced by the live owner of their id and subscribers are the
    # protected nodes in round-robin.
    live = sorted(ring_ids)
    merged = sorted(
        [(op.time, 1, i, op) for i, op in enumerate(trace_ops)]
        + [(op.time, 0, i, op) for i, op in enumerate(membership)]
    )
    ops: list[Op] = []
    sub_index = 0
    for time, _, _, op in merged:
        if op.kind == "join":
            bisect.insort(live, op.node)
            ops.append(op)
        elif op.kind in ("leave", "crash"):
            del live[bisect.bisect_left(live, op.node)]
            ops.append(op)
        elif op.kind == "sub":
            node = op.node
            if protected:
                node = protected[sub_index % len(protected)]
                sub_index += 1
            ops.append(Op(time, "sub", node, subscription=op.subscription, ttl=op.ttl))
        else:
            node = op.node
            index = bisect.bisect_left(live, node)
            if index == len(live) or live[index] != node:
                node = live[index % len(live)]
            ops.append(Op(time, "pub", node, event=op.event))
    return Inputs(ring_ids, ops, last + HORIZON_SLACK, frozenset(protected))


def _churn_schedule(
    workload: Workload,
    churn: ChurnPlan,
    seed: int,
    ring_ids: list[int],
    protected: set[int],
    until: float,
) -> list[Op]:
    """Pre-generated Poisson joins, leaves and crashes up to ``until``."""
    rng = random.Random(f"{seed}:{workload.name}:churn")
    arrivals: list[tuple[float, str]] = []
    for kind, period in (
        ("join", churn.join_period),
        ("leave", churn.leave_period),
        ("crash", churn.crash_period),
    ):
        time = rng.expovariate(1.0 / period)
        while time < until:
            arrivals.append((time, kind))
            time += rng.expovariate(1.0 / period)
    arrivals.sort()
    live = set(ring_ids)
    removable = sorted(live - protected)
    size = 1 << workload.key_bits
    schedule: list[Op] = []
    for time, kind in arrivals:
        if kind == "join":
            candidate = rng.randrange(size)
            while candidate in live:
                candidate = rng.randrange(size)
            live.add(candidate)
            bisect.insort(removable, candidate)
            schedule.append(Op(time, "join", candidate))
        elif len(live) > churn.floor and removable:
            victim = removable.pop(rng.randrange(len(removable)))
            live.discard(victim)
            schedule.append(Op(time, kind, victim))
    return schedule


def build_system(
    workload: Workload, ring_ids: list[int], telemetry=None
) -> tuple[Simulator, PubSubSystem]:
    """Ring build plus system construction, through public constructors."""
    sim = Simulator()
    keyspace = KeySpace(workload.key_bits)
    network = Network(sim, telemetry=telemetry)
    if workload.overlay == "can":
        overlay = CanOverlay(sim, keyspace, network=network)
    else:
        overlay = ChordOverlay(
            sim, keyspace, network=network, cache_capacity=workload.cache_capacity
        )
    overlay.build_ring(ring_ids)
    space = workload.spec.make_space()
    mapping = make_mapping(
        "selective-attribute",
        space,
        keyspace,
        discretization=Discretization.uniform(
            space.dimensions, workload.discretization_width
        ),
    )
    return sim, PubSubSystem(sim, overlay, mapping, workload.config)
