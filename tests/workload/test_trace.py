"""Trace generation (workload and churn), scheduling, replay and JSON."""

import dataclasses
import json
import random

import pytest

from repro.core import EventSpace, PubSubSystem
from repro.core.mappings import make_mapping
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator
from repro.workload.spec import ChurnSpec, WorkloadSpec
from repro.workload.trace import FORMAT_VERSIONS, Trace, TraceOp, schedule_ops

KS = KeySpace(13)


def generate(spec=None, subs=0, pubs=0, seed=4, n=60, **churn):
    """A generated trace and the (sorted) ring it was generated over."""
    node_ids = sorted(random.Random(seed).sample(range(KS.size), n))
    trace = Trace.generate(
        spec or WorkloadSpec(), random.Random(seed + 1), node_ids, subs, pubs,
        **churn,
    )
    return trace, node_ids


def make_trace(subs=10, pubs=8, ttl=None, seed=4):
    return generate(WorkloadSpec(subscription_ttl=ttl), subs, pubs, seed, n=50)


def test_generate_counts_and_ordering():
    trace, _ = make_trace(subs=10, pubs=8)
    assert len(trace) == 18
    times = [op.time for op in trace.ops]
    assert times == sorted(times)
    assert sum(1 for op in trace.ops if op.kind == "sub") == 10
    assert sum(1 for op in trace.ops if op.kind == "pub") == 8


def test_json_roundtrip():
    trace, _ = make_trace(subs=5, pubs=5, ttl=42.0)
    restored = Trace.from_json(trace.to_json())
    assert len(restored) == len(trace)
    for original, loaded in zip(trace.ops, restored.ops):
        assert original.time == loaded.time
        assert original.kind == loaded.kind
        assert original.node == loaded.node
        if original.subscription is not None:
            assert (
                loaded.subscription.subscription_id
                == original.subscription.subscription_id
            )
            assert loaded.subscription.constraints == original.subscription.constraints
            assert loaded.ttl == 42.0
        if original.event is not None:
            assert loaded.event.values == original.event.values
            assert loaded.event.event_id == original.event.event_id


def test_save_load(tmp_path):
    trace, _ = make_trace(subs=3, pubs=2)
    path = tmp_path / "trace.json"
    trace.save(path)
    assert len(Trace.load(path)) == 5


def test_replay_drives_a_system():
    trace, node_ids = make_trace(subs=8, pubs=8)
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(node_ids)
    system = PubSubSystem(
        sim, overlay, make_mapping("keyspace-split", trace.space, KS)
    )
    trace.replay(system)
    messages = system.recorder.messages
    from repro.overlay.api import MessageKind

    assert len(messages.requests_of_kind(MessageKind.SUBSCRIPTION)) == 8
    assert len(messages.requests_of_kind(MessageKind.PUBLICATION)) == 8


def test_replay_same_trace_different_mappings_comparable():
    """The point of traces: a paired comparison on identical input."""
    trace, node_ids = make_trace(subs=12, pubs=0, seed=9)
    from repro.overlay.api import MessageKind

    hops = {}
    for mapping_name in ("attribute-split", "selective-attribute"):
        sim = Simulator()
        overlay = ChordOverlay(sim, KS, cache_capacity=0)
        overlay.build_ring(node_ids)
        system = PubSubSystem(
            sim, overlay, make_mapping(mapping_name, trace.space, KS)
        )
        trace.replay(system)
        hops[mapping_name] = system.recorder.messages.mean_hops_per_request(
            MessageKind.SUBSCRIPTION
        )
    # Identical workload: attribute-split must cost strictly more.
    assert hops["attribute-split"] > hops["selective-attribute"]


def test_trace_roundtrip_preserves_attribute_kinds():
    """String attributes survive serialization (footnote 2 workloads)."""
    from repro.core.events import Attribute, EventSpace

    space = EventSpace(
        (Attribute("topic", 1000, kind="string"), Attribute("v", 1000))
    )
    event = space.make_event(topic="sports", v=5)
    trace = Trace(
        space,
        [TraceOp(time=1.0, kind="pub", node=10, event=event)],
    )
    restored = Trace.from_json(trace.to_json())
    assert restored.space.attributes[0].kind == "string"
    assert restored.space.attributes[1].kind == "int"
    assert restored.ops[0].event.values == event.values


def test_trace_json_carries_version():
    trace, _ = make_trace(subs=1, pubs=0)
    assert json.loads(trace.to_json())["version"] == FORMAT_VERSIONS[-1] == 2


# -- the Section 5.1 arrival model, read off the generated ops ---------------


def ops_of(trace, *kinds):
    return [op for op in trace.ops if op.kind in kinds]


def test_generate_injects_exact_counts():
    trace, node_ids = generate(subs=20, pubs=15)
    assert len(trace.subscriptions) == len(ops_of(trace, "sub")) == 20
    assert len(trace.events) == len(ops_of(trace, "pub")) == 15
    assert len(trace) == 35
    assert {op.node for op in trace.ops} <= set(node_ids)


def test_subscriptions_arrive_at_regular_period():
    trace, _ = generate(WorkloadSpec(subscription_period=5.0), subs=5)
    assert [op.time for op in trace.ops] == [5.0, 10.0, 15.0, 20.0, 25.0]


def test_publications_are_poisson_like():
    trace, _ = generate(WorkloadSpec(publication_mean_period=5.0), pubs=200)
    times = [op.time for op in trace.ops]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert 3.5 < sum(gaps) / len(gaps) < 6.5  # exponential with mean 5
    assert min(gaps) < 1.0  # bursty, unlike the regular stream


def test_empty_streams_generate_nothing():
    trace, _ = generate(subs=0, pubs=0)
    assert len(trace) == 0
    assert trace.subscriptions == [] and trace.events == []
    # ... and an empty trace still has a horizon to run to.
    assert trace.horizon(buffer_period=5.0) == 60.0


def test_matching_probability_counts_live_subscriptions_only():
    """TTL-aware: once every subscription has expired nothing can match."""
    spec = WorkloadSpec(
        subscription_ttl=30.0, matching_probability=1.0,
        publication_mean_period=1.0,
    )
    trace, _ = generate(spec, subs=10, pubs=300)
    subs = ops_of(trace, "sub")
    assert all(op.ttl == 30.0 for op in subs)
    last_expiry = max(op.time + op.ttl for op in subs)
    live = after = 0
    for pub in ops_of(trace, "pub"):
        matched = [
            s for s in subs
            if s.time <= pub.time < s.time + s.ttl
            and s.subscription.matches(pub.event)
        ]
        if pub.time > last_expiry:
            after += 1
            assert not any(s.subscription.matches(pub.event) for s in subs)
        elif any(s.time <= pub.time < s.time + s.ttl for s in subs):
            live += 1
            assert matched  # probability 1 against a live subscription
    assert live > 20 and after > 20


def test_horizon_derives_from_trace_and_buffer_period():
    trace, _ = generate(subs=3)
    assert trace.horizon(buffer_period=5.0) == 15.0 + 60.0
    # A buffer period longer than the slack still gets its flushes in.
    assert trace.horizon(buffer_period=90.0) == 15.0 + 900.0


# -- the churn half ------------------------------------------------------------


def churned(spec, seed=4, n=60, subs=40, pubs=80, protected=(), **kwargs):
    return generate(
        WorkloadSpec(subscription_period=5.0), subs=subs, pubs=pubs, seed=seed,
        n=n, churn=spec, churn_rng=random.Random(seed + 2),
        keyspace_size=KS.size, protected=protected, **kwargs,
    )


def membership_sizes(trace, node_ids):
    """Ring size after each op, checking the implied membership on the way."""
    trace.check_nodes(node_ids)  # joins absent, everyone else live
    live = set(node_ids)
    sizes = []
    for op in trace.ops:
        if op.kind == "join":
            live.add(op.node)
        elif op.kind in ("leave", "crash"):
            live.discard(op.node)
        sizes.append(len(live))
    return sizes


def test_churn_spec_validation():
    with pytest.raises(ConfigurationError):
        ChurnSpec(join_period=-1)
    with pytest.raises(ConfigurationError):
        ChurnSpec(min_ring_size=1)
    with pytest.raises(ConfigurationError):  # churn needs its own stream
        generate(subs=2, churn=ChurnSpec(join_period=1.0))


def test_joins_pick_free_ids_and_grow_the_ring():
    trace, node_ids = churned(ChurnSpec(join_period=5.0))
    joins = ops_of(trace, "join")
    assert len(joins) > 10
    assert len({op.node for op in joins} | set(node_ids)) == len(joins) + len(node_ids)
    assert all(0 <= op.node < KS.size for op in joins)
    assert membership_sizes(trace, node_ids)[-1] == len(node_ids) + len(joins)


def test_ring_never_below_min_ring_size():
    trace, node_ids = churned(
        ChurnSpec(leave_period=1.0, min_ring_size=10), n=12
    )
    assert len(ops_of(trace, "leave")) == 2
    assert min(membership_sizes(trace, node_ids)) == 10


def test_protected_nodes_never_removed():
    node_ids = sorted(random.Random(4).sample(range(KS.size), 30))
    protected = node_ids[:3]
    trace, _ = churned(
        ChurnSpec(leave_period=1.0, crash_period=1.0, min_ring_size=4),
        n=30, protected=protected,
    )
    removed = {op.node for op in ops_of(trace, "leave", "crash")}
    assert len(removed) == 30 - 4
    assert not removed & set(protected)
    # ... and they are the subscribers, in round-robin.
    assert [op.node for op in ops_of(trace, "sub")][:6] == protected * 2


def test_mixed_churn_emits_all_three_kinds_up_to_the_last_workload_op():
    trace, node_ids = churned(
        ChurnSpec(join_period=4.0, leave_period=6.0, crash_period=8.0), n=50
    )
    for kind in ("join", "leave", "crash"):
        assert ops_of(trace, kind)
    assert ops_of(trace, "join", "leave", "crash")[-1].time < trace.ops[-1].time
    assert trace.ops[-1].kind in ("sub", "pub")
    membership_sizes(trace, node_ids)  # every injector live at its instant


def test_zero_period_switches_a_stream_off():
    trace, _ = churned(ChurnSpec(join_period=5.0))
    assert not ops_of(trace, "leave", "crash")
    quiet, _ = churned(ChurnSpec())
    plain, _ = generate(WorkloadSpec(subscription_period=5.0), subs=40, pubs=80)
    assert [dataclasses.astuple(op)[:3] for op in quiet.ops] == [
        dataclasses.astuple(op)[:3] for op in plain.ops
    ]


def test_departed_injectors_are_replaced_by_the_live_owner():
    spec = ChurnSpec(leave_period=0.5, min_ring_size=5)
    trace, node_ids = churned(spec, n=40)
    plain, _ = generate(WorkloadSpec(subscription_period=5.0), subs=40, pubs=80, n=40)
    moved = [
        (new, old) for new, old in zip(ops_of(trace, "sub", "pub"), plain.ops)
        if new.node != old.node
    ]
    assert moved  # most of the ring has left by the end
    survivors = sorted(set(node_ids) - {op.node for op in ops_of(trace, "leave")})
    new, old = moved[-1]
    owner = next((n for n in survivors if n >= old.node), survivors[0])
    assert new.node == owner
    # Same content, draw for draw: only injecting nodes changed.
    assert [(op.time, op.kind) for op in ops_of(trace, "sub", "pub")] == [
        (op.time, op.kind) for op in plain.ops
    ]
    assert [e.values for e in trace.events] == [e.values for e in plain.events]


# -- scheduling, validation, persistence of a churn trace -------------------------


def chord_system(node_ids, space):
    sim = Simulator()
    overlay = ChordOverlay(sim, KS)
    overlay.build_ring(node_ids)
    return PubSubSystem(sim, overlay, make_mapping("keyspace-split", space, KS))


def test_churn_trace_replays_its_membership():
    trace, node_ids = churned(
        ChurnSpec(join_period=4.0, leave_period=6.0, crash_period=8.0), n=50
    )
    system = chord_system(node_ids, trace.space)
    trace.replay(system)
    assert system.sim.now == trace.horizon(system.config.buffer_period)
    assert len(system.overlay.node_ids()) == membership_sizes(trace, node_ids)[-1]


def test_churn_trace_json_roundtrip():
    trace, _ = churned(
        ChurnSpec(join_period=4.0, leave_period=6.0, crash_period=8.0), n=50
    )
    restored = Trace.from_json(trace.to_json())
    assert [(op.time, op.kind, op.node, op.ttl) for op in restored.ops] == [
        (op.time, op.kind, op.node, op.ttl) for op in trace.ops
    ]
    assert [e.values for e in restored.events] == [e.values for e in trace.events]
    assert [s.constraints for s in restored.subscriptions] == [
        s.constraints for s in trace.subscriptions
    ]
    assert restored.to_json() == trace.to_json()


def edited(trace, **changes):
    """The trace's JSON with the version or the first op's fields changed
    (``None`` deletes the field)."""
    payload = json.loads(trace.to_json())
    for key, value in changes.items():
        target = payload if key == "version" else payload["ops"][0]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"version": 99}, "version 99"),
        ({"version": None}, "version None"),
        ({"kind": "frob"}, "op 0: unknown kind 'frob'"),
        ({"values": None}, "op 0: a 'pub' op needs its event"),
    ],
)
def test_from_json_rejects_what_it_cannot_run(changes, message):
    trace, _ = make_trace(subs=0, pubs=2)
    with pytest.raises(ConfigurationError, match=message):
        Trace.from_json(edited(trace, **changes))


def test_version_1_files_still_load():
    trace, _ = make_trace(subs=3, pubs=3)
    assert len(Trace.from_json(edited(trace, version=1))) == 6


@pytest.mark.parametrize(
    "op, message",
    [
        (TraceOp(1.0, "frob", 10), "op 1: unknown kind 'frob'"),
        (TraceOp(1.0, "sub", 10), "op 1: a 'sub' op needs its subscription"),
        (TraceOp(1.0, "pub", 10), "op 1: a 'pub' op needs its event"),
    ],
)
def test_scheduler_rejects_an_op_it_cannot_run(op, message):
    trace, node_ids = make_trace(subs=1, pubs=0)
    system = chord_system(node_ids, trace.space)
    with pytest.raises(ConfigurationError, match=message):
        schedule_ops(system, trace.ops + [op])


def test_replay_rejects_a_ring_the_trace_was_not_generated_over():
    trace, node_ids = make_trace(subs=4, pubs=4)
    other = random.Random(99).sample(range(KS.size), 50)
    system = chord_system(other, trace.space)
    with pytest.raises(ConfigurationError, match="op 0 .* not in the ring"):
        trace.replay(system)
    assert system.sim.events_processed == 0  # rejected before anything ran
    rejoin = Trace(trace.space, [TraceOp(1.0, "join", node_ids[0])])
    with pytest.raises(ConfigurationError, match="already in the ring"):
        rejoin.replay(chord_system(node_ids, trace.space))


def test_replay_rejects_another_event_space():
    trace, node_ids = make_trace(subs=1, pubs=1)
    other = EventSpace.uniform(("x", "y"), 100)
    with pytest.raises(ConfigurationError, match="event space"):
        trace.replay(chord_system(node_ids, other))
