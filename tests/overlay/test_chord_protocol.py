"""Protocol-level Chord: joins, stabilization, convergence, failures."""

import random

import pytest

from repro.errors import OverlayError
from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.chord.protocol import ProtocolChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import Simulator

KS = KeySpace(13)


def build(n, seed=1, **kwargs):
    sim = Simulator()
    overlay = ProtocolChordOverlay(sim, KS, **kwargs)
    ids = random.Random(seed).sample(range(KS.size), n)
    overlay.bootstrap(ids[0])
    for node_id in ids[1:]:
        overlay.join(node_id, bootstrap=ids[0])
        sim.run_until(sim.now + 3 * overlay.stabilize_period)
    return sim, overlay


def test_bootstrap_single_node():
    sim = Simulator()
    overlay = ProtocolChordOverlay(sim, KS)
    overlay.bootstrap(100)
    node = overlay.node(100)
    assert node.successor == 100
    sim.run_until(60.0)
    assert node.successor == 100  # stable alone


def test_double_bootstrap_rejected():
    overlay = ProtocolChordOverlay(Simulator(), KS)
    overlay.bootstrap(1)
    with pytest.raises(OverlayError):
        overlay.bootstrap(2)


def test_join_requires_live_bootstrap():
    overlay = ProtocolChordOverlay(Simulator(), KS)
    overlay.bootstrap(1)
    with pytest.raises(OverlayError):
        overlay.join(5, bootstrap=99)
    with pytest.raises(OverlayError):
        overlay.join(1, bootstrap=1)


def test_two_nodes_converge():
    sim = Simulator()
    overlay = ProtocolChordOverlay(sim, KS)
    overlay.bootstrap(100)
    overlay.join(5000, bootstrap=100)
    converged, _ = overlay.run_until_converged()
    assert converged
    assert overlay.node(100).successor == 5000
    assert overlay.node(5000).successor == 100
    assert overlay.node(100).predecessor == 5000


def test_sequential_joins_converge_to_ideal_ring():
    sim, overlay = build(20, seed=2)
    converged, _ = overlay.run_until_converged()
    assert converged
    for node_id in overlay.node_ids():
        assert overlay.node(node_id).successor == overlay.ideal_successor(node_id)


def test_fingers_converge_to_ideal():
    sim, overlay = build(15, seed=3)
    overlay.run_until_converged()
    # Let fix_fingers cycle through every entry a few times.
    sim.run_until(sim.now + 5 * KS.bits * overlay.fix_fingers_period)
    ids = sorted(overlay.node_ids())

    def ideal_owner(key):
        import bisect

        index = bisect.bisect_left(ids, key)
        return ids[index % len(ids)] if index < len(ids) else ids[0]

    for node_id in ids:
        node = overlay.node(node_id)
        for index, finger in enumerate(node.fingers):
            if finger is None:
                continue
            start = KS.finger_start(node_id, index + 1)
            assert finger == ideal_owner(start), (node_id, index)


def test_concurrent_joins_converge():
    sim = Simulator()
    overlay = ProtocolChordOverlay(sim, KS)
    ids = random.Random(4).sample(range(KS.size), 25)
    overlay.bootstrap(ids[0])
    for node_id in ids[1:]:
        overlay.join(node_id, bootstrap=ids[0])  # all at once, no settling
    converged, elapsed = overlay.run_until_converged(max_rounds=400)
    assert converged, "concurrent joins never converged"


def test_join_cost_scales_logarithmically():
    """A single join costs O(log n) control messages for the lookup
    (ongoing stabilization traffic is periodic and excluded here)."""
    sim, overlay = build(30, seed=5)
    overlay.run_until_converged()
    sim.run_until(sim.now + 10.0)
    before = overlay.control_messages()
    new_id = next(k for k in range(KS.size) if not overlay.is_alive(k))
    overlay.join(new_id, bootstrap=overlay.node_ids()[0])
    sim.run_until(sim.now + 0.5)  # lookup settles; few stabilize rounds
    lookup_cost = overlay.control_messages() - before
    # Generous bound: lookup hops + a couple of stabilization rounds.
    assert lookup_cost < 8 * 13


def test_crash_recovery_via_successor_list():
    sim, overlay = build(12, seed=6, successor_list_size=4)
    overlay.run_until_converged()
    sim.run_until(sim.now + 20.0)  # populate successor lists
    ids = overlay.node_ids()
    victim = ids[3]
    overlay.crash(victim)
    converged, _ = overlay.run_until_converged(max_rounds=300)
    assert converged
    assert victim not in overlay.node_ids()


def test_multiple_crashes_recovered():
    sim, overlay = build(16, seed=7, successor_list_size=5)
    overlay.run_until_converged()
    sim.run_until(sim.now + 30.0)
    rng = random.Random(8)
    for _ in range(4):
        victim = rng.choice(overlay.node_ids())
        overlay.crash(victim)
        sim.run_until(sim.now + 10.0)
    converged, _ = overlay.run_until_converged(max_rounds=400)
    assert converged


def test_crash_unknown_rejected():
    overlay = ProtocolChordOverlay(Simulator(), KS)
    overlay.bootstrap(1)
    with pytest.raises(OverlayError):
        overlay.crash(2)


def test_lookup_resolves_correct_successor():
    sim, overlay = build(18, seed=9)
    overlay.run_until_converged()
    sim.run_until(sim.now + 5 * KS.bits * overlay.fix_fingers_period)
    results = []
    source = overlay.node(overlay.node_ids()[0])
    rng = random.Random(10)
    keys = [rng.randrange(KS.size) for _ in range(20)]
    for key in keys:
        source.lookup(key, lambda successor, key=key: results.append((key, successor)))
    sim.run_until(sim.now + 30.0)
    assert len(results) == 20
    ids = sorted(overlay.node_ids())
    import bisect

    for key, successor in results:
        index = bisect.bisect_left(ids, key)
        expected = ids[index % len(ids)] if index < len(ids) else ids[0]
        assert successor == expected, (key, successor, expected)


def test_graceful_leave_heals_faster_than_crash():
    sim, overlay = build(14, seed=11)
    overlay.run_until_converged()
    sim.run_until(sim.now + 20.0)
    victim = overlay.node_ids()[4]
    predecessor = overlay.node(victim).predecessor
    successor = overlay.node(victim).live_successor()
    overlay.leave(victim)
    sim.run_until(sim.now + 0.2)  # one hop: notices arrive
    assert overlay.node(predecessor).successor == successor
    assert overlay.node(successor).predecessor == predecessor
    converged, _ = overlay.run_until_converged(max_rounds=100)
    assert converged
    assert victim not in overlay.node_ids()


def test_leave_clears_stale_pointers():
    sim, overlay = build(10, seed=12)
    overlay.run_until_converged()
    sim.run_until(sim.now + 5 * 13 * overlay.fix_fingers_period)
    victim = overlay.node_ids()[3]
    predecessor = overlay.node(victim).predecessor
    successor = overlay.node(victim).live_successor()
    overlay.leave(victim)
    sim.run_until(sim.now + 0.2)
    # The notified neighbors dropped the leaver immediately...
    for neighbor in (predecessor, successor):
        node = overlay.node(neighbor)
        assert victim not in node.successor_list
        assert node.successor != victim
    # ...and the rest of the ring heals through stabilization.
    converged, _ = overlay.run_until_converged(max_rounds=200)
    assert converged
    sim.run_until(sim.now + 60.0)  # successor lists refresh
    for node_id in overlay.node_ids():
        assert victim not in overlay.node(node_id).successor_list


def test_a_walk_at_a_node_that_believes_itself_alone_is_delivered_there():
    """The walk's leg is the node's own unicast, so it ends where that
    unicast does: a node whose successor and successor list all died
    has nowhere to send and delivers the walk, once, covered or not."""
    sim, overlay = build(5, seed=13, successor_list_size=3)
    overlay.run_until_converged()
    sim.run_until(sim.now + 20.0)  # populate successor lists
    me = overlay.node_ids()[0]
    node = overlay.node(me)
    for other in overlay.node_ids()[1:]:
        overlay.crash(other)
    # No timeout has fired yet: its pointers still name the dead.
    assert node.predecessor != me and node.live_successor() == me
    keys = [k for k in range(0, KS.size, 97) if not overlay.covers(me, k)][:3]
    deliveries = []
    overlay.set_deliver(lambda nid, m: deliveries.append((nid, m)))
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=me,
    )
    overlay.sequential_cast(me, keys, message)
    ((at, delivered),) = deliveries
    assert at == me and delivered.hops == 0
    assert delivered.target_keys == frozenset(keys)
    trace = overlay.recorder.messages.traces[message.request_id]
    assert trace.deliveries == [(me, sim.now)] and trace.one_hop_messages == 0


def one_step_branches(overlay, src, keys, monkeypatch):
    """Pointer -> target keys of the branches one m-cast step at ``src``
    sends (captured at the network, so nothing travels on)."""
    sent = {}

    def capture(_src, dst, message):
        assert dst not in sent, "two branches to one pointer"
        sent[dst] = message.target_keys

    monkeypatch.setattr(overlay, "_network_transmit", capture)
    monkeypatch.setattr(overlay.network, "transmit", capture)
    message = OverlayMessage(
        kind=MessageKind.SUBSCRIPTION,
        payload=None,
        request_id=next_request_id(),
        origin=src,
    )
    overlay.mcast(src, keys, message)
    monkeypatch.undo()
    return sent


def reference_branches(overlay, src, keys):
    """Per key: the farthest live pointer (finger, successor or successor
    list entry) strictly before it, else the nearest pointer."""
    node = overlay.node(src)
    pointers = sorted(
        {
            candidate
            for candidate in [*node.fingers, node.live_successor(), *node.successor_list]
            if candidate is not None
            and candidate != src
            and overlay.is_alive(candidate)
        },
        key=lambda candidate: KS.distance(src, candidate),
    )
    groups = {}
    for key in keys:
        if overlay.covers(src, key):
            continue
        best = pointers[0]
        for pointer in pointers:
            if 0 < KS.distance(src, pointer) < KS.distance(src, key):
                best = pointer
        groups.setdefault(best, set()).add(key)
    return {pointer: frozenset(group) for pointer, group in groups.items()}


@pytest.mark.parametrize("converge", [True, False], ids=["converged", "joining"])
def test_mcast_step_sends_each_key_to_the_farthest_pointer_before_it(
    converge, monkeypatch
):
    """One m-cast step over stored pointers splits the keys it does not
    cover exactly as the per-key reference does, on a settled ring and
    on one whose joins have not converged (fingers missing or stale)."""
    if converge:
        sim, overlay = build(24, seed=14)
        overlay.run_until_converged()
        sim.run_until(sim.now + 5 * KS.bits * overlay.fix_fingers_period)
    else:
        sim = Simulator()
        overlay = ProtocolChordOverlay(sim, KS)
        ids = random.Random(14).sample(range(KS.size), 24)
        overlay.bootstrap(ids[0])
        for node_id in ids[1:]:
            overlay.join(node_id, bootstrap=ids[0])
            sim.run_until(sim.now + 0.5)
    assert overlay.converged() is converge
    rng = random.Random(15)
    splits = 0
    for src in overlay.node_ids():
        first = rng.randrange(KS.size)
        keys = {(first + i) % KS.size for i in range(rng.randrange(1, 2000))}
        keys.update(rng.sample(range(KS.size), 12))
        expected = reference_branches(overlay, src, keys)
        assert one_step_branches(overlay, src, keys, monkeypatch) == expected
        splits += len(expected) > 1
    assert splits > len(overlay.node_ids()) // 2
