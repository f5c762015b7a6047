"""The workload: one time-ordered op list, however it is run.

A :class:`Trace` is a timestamped sequence of subscribe / publish /
join / leave / crash operations — the only representation of a
workload in ``src/``, with one generator (:meth:`Trace.generate`), one
serialisation (:meth:`Trace.to_json`) and one scheduler
(:func:`schedule_ops`).  One seed is one workload: the same trace runs
on either kernel and replays against different mappings, routing modes
or overlays for paired comparisons.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import random
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.events import Attribute, Event, EventSpace
from repro.core.subscriptions import Constraint, Subscription
from repro.core.system import PubSubSystem
from repro.errors import ConfigurationError
from repro.workload.generator import EventGenerator, SubscriptionGenerator
from repro.workload.spec import ChurnSpec, WorkloadSpec

#: Op kind -> the :class:`TraceOp` field it cannot run without.
PAYLOAD_OF_KIND = {
    "sub": "subscription", "pub": "event",
    "join": None, "leave": None, "crash": None,
}

#: JSON format versions this build reads; 2 added the membership ops.
FORMAT_VERSIONS = (1, 2)

#: Simulated seconds a run continues past its last op so in-flight
#: traffic settles (see :meth:`Trace.horizon`).
HORIZON_SLACK = 60.0


@dataclasses.dataclass(frozen=True)
class TraceOp:
    """One timed workload operation.

    Attributes:
        time: Simulated injection time.
        kind: ``"sub"``, ``"pub"``, ``"join"``, ``"leave"`` or ``"crash"``.
        node: Injecting overlay node id, or the node a membership op moves.
        subscription: Present for ``"sub"`` operations.
        event: Present for ``"pub"`` operations.
        ttl: Subscription expiration, for ``"sub"`` operations.
    """

    time: float
    kind: str
    node: int
    subscription: Subscription | None = None
    event: Event | None = None
    ttl: float | None = None


def check_op(index: int, op: TraceOp) -> None:
    """Reject an op that cannot be executed as the kind it names."""
    if op.kind not in PAYLOAD_OF_KIND:
        raise ConfigurationError(
            f"trace op {index}: unknown kind {op.kind!r} "
            f"(expected one of {', '.join(PAYLOAD_OF_KIND)})"
        )
    payload = PAYLOAD_OF_KIND[op.kind]
    if payload is not None and getattr(op, payload) is None:
        raise ConfigurationError(
            f"trace op {index}: a {op.kind!r} op needs its {payload}"
        )


def schedule_ops(system: PubSubSystem, ops: Iterable[TraceOp]) -> None:
    """Put every op on the system's simulator: the one scheduler, handed
    the whole trace by a serial replay and its arc's slice by a shard
    worker."""
    schedule_at = system.sim.schedule_at
    membership = {
        "join": system.add_node,
        "leave": system.remove_node,
        "crash": system.crash_node,
    }
    for index, op in enumerate(ops):
        check_op(index, op)
        if op.kind == "sub":
            schedule_at(op.time, system.subscribe, op.node, op.subscription, op.ttl)
        elif op.kind == "pub":
            schedule_at(op.time, system.publish, op.node, op.event)
        else:
            schedule_at(op.time, membership[op.kind], op.node)


class Trace:
    """An ordered, replayable sequence of workload operations."""

    def __init__(self, space: EventSpace, ops: Iterable[TraceOp] = ()) -> None:
        self._space = space
        self._ops: list[TraceOp] = sorted(ops, key=lambda op: op.time)

    @property
    def space(self) -> EventSpace:
        """Event space of the traced workload."""
        return self._space

    @property
    def ops(self) -> list[TraceOp]:
        """The operations, in time order."""
        return list(self._ops)

    @property
    def subscriptions(self) -> list[Subscription]:
        """The injected subscriptions, in injection order."""
        return [op.subscription for op in self._ops if op.kind == "sub"]

    @property
    def events(self) -> list[Event]:
        """The published events, in injection order."""
        return [op.event for op in self._ops if op.kind == "pub"]

    def __len__(self) -> int:
        return len(self._ops)

    @classmethod
    def generate(
        cls,
        spec: WorkloadSpec,
        rng: random.Random,
        node_ids: list[int],
        subscriptions: int,
        publications: int,
        churn: ChurnSpec | None = None,
        churn_rng: random.Random | None = None,
        protected: Sequence[int] = (),
        keyspace_size: int = 0,
    ) -> "Trace":
        """Pre-generate a full trace per the Section 5.1 arrival model.

        With ``churn``, Poisson joins, leaves and crashes up to the last
        workload op are pre-drawn from ``churn_rng`` over a tracked live
        membership (the content stays the churn-free trace's, draw for
        draw): joins take free ids below ``keyspace_size``, departures
        spare the ``protected`` nodes and stop at ``churn.min_ring_size``.
        The protected nodes then subscribe in round-robin — a missed
        notification is the system's loss, not the workload's — and a
        publisher (or, with nothing protected, a subscriber) gone by its
        op's time is replaced by the live owner of its id.
        """
        sub_generator = SubscriptionGenerator(spec, rng)
        sub_ops: list[TraceOp] = []
        time = 0.0
        for _ in range(subscriptions):
            time += spec.subscription_period
            sub_ops.append(
                TraceOp(
                    time=time,
                    kind="sub",
                    node=rng.choice(node_ids),
                    subscription=sub_generator.generate(),
                    ttl=spec.subscription_ttl,
                )
            )
        pub_times = []
        time = 0.0
        for _ in range(publications):
            time += rng.expovariate(1.0 / spec.publication_mean_period)
            pub_times.append(time)
        # Generate publications chronologically so the matching
        # probability refers to the subscriptions live at each instant.
        event_generator = EventGenerator(spec, sub_generator.space, rng)
        sub_index = 0
        pub_ops = []
        for pub_time in pub_times:
            while sub_index < len(sub_ops) and sub_ops[sub_index].time <= pub_time:
                op = sub_ops[sub_index]
                assert op.subscription is not None
                expire_at = None if op.ttl is None else op.time + op.ttl
                event_generator.register(op.subscription, expire_at)
                sub_index += 1
            pub_ops.append(
                TraceOp(
                    time=pub_time,
                    kind="pub",
                    node=rng.choice(node_ids),
                    event=event_generator.generate(pub_time),
                )
            )
        trace = cls(sub_generator.space, sub_ops + pub_ops)
        if churn is not None and trace._ops:
            if churn_rng is None or keyspace_size < 1:
                raise ConfigurationError("churn needs churn_rng and keyspace_size")
            trace._ops = _with_churn(
                trace._ops, churn, churn_rng, node_ids, list(protected), keyspace_size
            )
        return trace

    def horizon(self, buffer_period: float) -> float:
        """When a run of this trace ends, on either kernel: the last op
        plus :data:`HORIZON_SLACK` for in-flight routing, or ten buffer
        periods if longer (a buffered match leaves at the next flush and
        collecting advances it one ring hop per flush)."""
        last = self._ops[-1].time if self._ops else 0.0
        return last + max(HORIZON_SLACK, 10.0 * buffer_period)

    def check_nodes(self, node_ids: Iterable[int]) -> None:
        """Reject a ring this trace was not generated over: along the
        membership the trace implies from ``node_ids``, every joiner
        must be absent and every other op's node live at its time."""
        live = set(node_ids)
        for index, op in enumerate(self._ops):
            if (op.node in live) == (op.kind == "join"):
                raise ConfigurationError(
                    f"trace op {index} ({op.kind!r} at t={op.time:g}) names "
                    f"node {op.node}, which is "
                    f"{'already' if op.kind == 'join' else 'not'} in the ring "
                    "at that time: the trace was not generated over this ring"
                )
            if op.kind == "join":
                live.add(op.node)
            elif op.kind in ("leave", "crash"):
                live.discard(op.node)

    def replay(self, system: PubSubSystem) -> None:
        """Schedule every operation on the system's simulator and run
        to :meth:`horizon`.  The system must share the trace's event
        space and start from the ring the trace was generated over."""
        if system.mapping.space != self._space:
            raise ConfigurationError(
                "the system's mapping and the trace range over different event spaces"
            )
        self.check_nodes(system.overlay.node_ids())
        schedule_ops(system, self._ops)
        system.sim.run_until(self.horizon(system.config.buffer_period))

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the trace (including the event space) to JSON."""
        payload = {
            "version": FORMAT_VERSIONS[-1],
            "space": [
                {"name": a.name, "size": a.size, "kind": a.kind}
                for a in self._space.attributes
            ],
            "ops": [self._op_to_dict(op) for op in self._ops],
        }
        return json.dumps(payload)

    @staticmethod
    def _op_to_dict(op: TraceOp) -> dict:
        record: dict = {"time": op.time, "kind": op.kind, "node": op.node}
        if op.subscription is not None:
            record["sid"] = op.subscription.subscription_id
            record["constraints"] = [
                [c.attribute, c.low, c.high] for c in op.subscription.constraints
            ]
            record["ttl"] = op.ttl
        if op.event is not None:
            record["values"] = list(op.event.values)
            record["eid"] = op.event.event_id
        return record

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Deserialize a trace produced by :meth:`to_json`; outside input,
        so an unknown format version or op kind, or an op without its
        kind's payload, raises :class:`~repro.errors.ConfigurationError`."""
        payload = json.loads(text)
        if payload.get("version") not in FORMAT_VERSIONS:
            raise ConfigurationError(
                f"unsupported trace format version {payload.get('version')!r} "
                f"(this build reads {FORMAT_VERSIONS})"
            )
        space = EventSpace(
            tuple(
                Attribute(a["name"], a["size"], kind=a.get("kind", "int"))
                for a in payload["space"]
            )
        )
        ops = []
        for index, record in enumerate(payload["ops"]):
            subscription = None
            event = None
            if "constraints" in record:
                subscription = Subscription(
                    space=space,
                    constraints=tuple(
                        Constraint(attribute=a, low=lo, high=hi)
                        for a, lo, hi in record["constraints"]
                    ),
                    subscription_id=record["sid"],
                )
            if "values" in record:
                event = Event(
                    space=space,
                    values=tuple(record["values"]),
                    event_id=record["eid"],
                )
            op = TraceOp(
                time=record["time"],
                kind=record["kind"],
                node=record["node"],
                subscription=subscription,
                event=event,
                ttl=record.get("ttl"),
            )
            check_op(index, op)
            ops.append(op)
        return cls(space, ops)

    def save(self, path: str | Path) -> None:
        """Write the trace to a JSON file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace from a JSON file."""
        return cls.from_json(Path(path).read_text())


def _with_churn(
    workload: list[TraceOp],
    churn: ChurnSpec,
    rng: random.Random,
    node_ids: list[int],
    protected: list[int],
    keyspace_size: int,
) -> list[TraceOp]:
    """``workload`` merged with pre-drawn Poisson membership ops."""
    arrivals: list[tuple[float, str]] = []
    for kind in ("join", "leave", "crash"):
        period = getattr(churn, kind + "_period")
        if period == 0:  # the stream is off: it draws nothing
            continue
        time = rng.expovariate(1.0 / period)
        while time < workload[-1].time:
            arrivals.append((time, kind))
            time += rng.expovariate(1.0 / period)
    arrivals.sort()
    members = set(node_ids)
    removable = sorted(members - set(protected))
    membership: list[TraceOp] = []
    for time, kind in arrivals:
        if kind == "join":
            if len(members) == keyspace_size:
                continue  # no free id left to join with
            candidate = rng.randrange(keyspace_size)
            while candidate in members:
                candidate = rng.randrange(keyspace_size)
            members.add(candidate)
            bisect.insort(removable, candidate)
            membership.append(TraceOp(time, "join", candidate))
        elif len(members) > churn.min_ring_size and removable:
            victim = removable.pop(rng.randrange(len(removable)))
            members.discard(victim)
            membership.append(TraceOp(time, kind, victim))
    # Merge (membership first at equal times), tracking the live ring so
    # every injector is live at its op's instant.
    live = sorted(node_ids)
    merged = sorted(
        [(op.time, 1, i, op) for i, op in enumerate(workload)]
        + [(op.time, 0, i, op) for i, op in enumerate(membership)]
    )
    ops: list[TraceOp] = []
    subscribers = 0
    for _, _, _, op in merged:
        node = op.node
        if op.kind == "join":
            bisect.insort(live, node)
        elif op.kind in ("leave", "crash"):
            del live[bisect.bisect_left(live, node)]
        elif op.kind == "sub" and protected:
            node = protected[subscribers % len(protected)]
            subscribers += 1
        else:
            index = bisect.bisect_left(live, node)
            if index == len(live) or live[index] != node:
                node = live[index % len(live)]  # the id's live owner
        ops.append(op if node == op.node else dataclasses.replace(op, node=node))
    return ops
