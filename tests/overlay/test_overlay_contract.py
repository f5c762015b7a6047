"""The OverlayNetwork contract, enforced uniformly across Chord, Pastry
and CAN — anything the pub/sub layer relies on must hold for all.

The entry-point cases and the m-cast check also run over protocol-level
Chord, whose application sends take the same base entry points and the
same m-cast step over stored pointers.
"""

import random

import pytest

from repro.errors import ConfigurationError, OverlayError
from repro.overlay.api import MessageKind, NeighborSide, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordNode, ChordOverlay, ProtocolChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator
from tests.overlay import per_key_mcast

KS = KeySpace(13)
OVERLAYS = [ChordOverlay, PastryOverlay, CanOverlay]
ENTRY_POINT_OVERLAYS = OVERLAYS + [ProtocolChordOverlay]


def build(overlay_cls, n=60, seed=2):
    sim = Simulator()
    overlay = overlay_cls(sim, KS)
    if overlay_cls is ProtocolChordOverlay:
        n = min(n, 12)  # each protocol join runs stabilization rounds
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def settle(sim):
    """Run the sends out.  Protocol Chord's periodic timers never let
    ``sim.run()`` return, so stop a bounded time later."""
    sim.run_until(sim.now + 10.0)


def app_sends(overlay):
    """One-hop sends other than maintenance traffic."""
    messages = overlay.recorder.messages
    return messages.total_sends() - messages.total_sends(MessageKind.CONTROL)


def message(src, kind=MessageKind.PUBLICATION):
    return OverlayMessage(
        kind=kind, payload=None, request_id=next_request_id(), origin=src
    )


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_every_key_has_exactly_one_owner(overlay_cls):
    _, overlay = build(overlay_cls)
    for key in range(0, KS.size, 61):
        owner = overlay.owner_of(key)
        assert overlay.is_alive(owner)
        assert overlay.covers(owner, key)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_nodes_cover_their_own_ids(overlay_cls):
    _, overlay = build(overlay_cls)
    for node_id in overlay.node_ids():
        assert overlay.covers(node_id, node_id)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_neighbor_pointers_are_mutual(overlay_cls):
    _, overlay = build(overlay_cls)
    for node_id in overlay.node_ids()[:20]:
        successor = overlay.neighbor_of(node_id, NeighborSide.SUCCESSOR)
        assert overlay.neighbor_of(successor, NeighborSide.PREDECESSOR) == node_id


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_heir_inherits_coverage_on_crash(overlay_cls):
    _, overlay = build(overlay_cls)
    victim = overlay.node_ids()[7]
    heir = overlay.heir_of(victim)
    probe_key = victim  # the victim covers its own id
    overlay.crash(victim)
    assert overlay.owner_of(probe_key) == heir


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_send_to_neighbor_is_exactly_one_hop(overlay_cls):
    sim, overlay = build(overlay_cls)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    src = overlay.node_ids()[0]
    overlay.send_to_neighbor(src, NeighborSide.SUCCESSOR, message(src))
    sim.run()
    assert delivered == [(overlay.neighbor_of(src, NeighborSide.SUCCESSOR), 1)]


@pytest.mark.parametrize("overlay_cls", ENTRY_POINT_OVERLAYS)
def test_empty_mcast_and_sequential_are_noops(overlay_cls):
    sim, overlay = build(overlay_cls)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    src = overlay.node_ids()[0]
    overlay.mcast(src, [], message(src))
    overlay.sequential_cast(src, [], message(src))
    settle(sim)
    assert delivered == []
    assert app_sends(overlay) == 0


@pytest.mark.parametrize("overlay_cls", ENTRY_POINT_OVERLAYS)
def test_send_validates_key_range(overlay_cls):
    _, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    with pytest.raises(Exception):
        overlay.send(src, KS.size, message(src))


#: Keys of another type, some of them equal to a valid key: each is
#: refused by type at the entry point, before any routing.
NOT_INT_KEYS = [60.5, 60.0, 3.5, "60", None]


@pytest.mark.parametrize("key", NOT_INT_KEYS)
@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_a_key_that_is_not_an_int_is_refused(overlay_cls, key):
    sim, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(m))
    with pytest.raises(ConfigurationError, match="not an int"):
        overlay.send(src, key, message(src))
    for cast in (overlay.mcast, overlay.sequential_cast):
        with pytest.raises(ConfigurationError, match="not an int"):
            cast(src, [7, key], message(src))
    with pytest.raises(ConfigurationError, match="not an int"):
        overlay.owner_of(key)
    with pytest.raises(ConfigurationError, match="not an int"):
        overlay.covers(src, key)
    settle(sim)
    assert delivered == []
    assert overlay.recorder.messages.total_sends() == 0


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_a_bool_key_is_an_int(overlay_cls):
    sim, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    assert overlay.owner_of(True) == overlay.owner_of(1)
    assert overlay.covers(overlay.owner_of(1), True)
    overlay.send(src, True, message(src))
    overlay.mcast(src, [True, 7], message(src))
    overlay.sequential_cast(src, [True], message(src))
    settle(sim)
    assert delivered.count(overlay.owner_of(1)) == 3


@pytest.mark.parametrize("overlay_cls", ENTRY_POINT_OVERLAYS)
def test_unknown_source_rejected(overlay_cls):
    _, overlay = build(overlay_cls)
    missing = next(k for k in range(KS.size) if not overlay.is_alive(k))
    with pytest.raises(OverlayError):
        overlay.send(missing, 0, message(missing))


@pytest.mark.parametrize("overlay_cls", ENTRY_POINT_OVERLAYS)
def test_local_coverage_delivers_without_network(overlay_cls):
    sim, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    overlay.send(src, src, message(src))  # own id: always local
    settle(sim)
    assert delivered == [(src, 0)]
    assert app_sends(overlay) == 0


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_state_transfer_hook_interval_matches_new_coverage(overlay_cls):
    """Whatever interval the hook hands over, the recipient must end up
    covering every key in it (open-left, closed-right convention)."""
    sim, overlay = build(overlay_cls, n=20, seed=4)
    calls = []
    overlay.set_state_transfer(lambda f, t, r: calls.append((f, t, r)))
    joiner = next(k for k in range(100, KS.size) if not overlay.is_alive(k))
    overlay.join(joiner)
    assert calls, "join must fire the state-transfer hook"
    from_node, to_node, (left, right) = calls[-1]
    assert to_node == joiner
    span = (right - left) % KS.size or KS.size  # the whole ring if equal
    for offset in range(1, min(span, 50) + 1):
        key = (left + offset) % KS.size
        assert overlay.covers(joiner, key), key


# Every overlay runs the one Fig. 4 step (``OverlayNode.continue_mcast``).
# Chord with an empty cache splits over fingers alone, at the origin too;
# Pastry and protocol Chord split over a pointer list by the textbook rule
# (protocol Chord once ``build_ring`` has let its ring converge).
FIG4_OVERLAYS = [
    pytest.param(ChordOverlay, {}, id="chord"),
    pytest.param(ChordOverlay, {"cache_capacity": 0}, id="chord-cache0"),
    pytest.param(CanOverlay, {}, id="can"),
    pytest.param(PastryOverlay, {}, id="pastry"),
    pytest.param(ProtocolChordOverlay, {}, id="protocol-chord"),
]


@pytest.mark.parametrize("overlay_cls, options", FIG4_OVERLAYS)
def test_mcast_delivers_once_at_each_owner_of_a_target_key(overlay_cls, options):
    """An m-cast of a key range plus scattered keys delivers exactly
    once at each node owning a target key, and at no other node: the
    paper's at-most-once guarantee and complete coverage together."""
    sim = Simulator()
    overlay = overlay_cls(sim, KS, **options)
    rng = random.Random(11)
    overlay.build_ring(rng.sample(range(KS.size), 80))
    ids = overlay.node_ids()
    for src in ids:  # traffic first, so the location caches hold entries
        overlay.send(src, rng.randrange(KS.size), message(src))
    settle(sim)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    for _ in range(25):
        first = rng.randrange(KS.size)
        keys = {(first + i) % KS.size for i in range(rng.randrange(1, 600))}
        keys.update(rng.sample(range(KS.size), 12))
        src = rng.choice(ids)
        delivered.clear()
        overlay.mcast(src, keys, message(src, MessageKind.SUBSCRIPTION))
        settle(sim)  # bounded: a step that re-sends keys fails, not hangs
        assert sorted(delivered) == sorted({overlay.owner_of(k) for k in keys})


def test_an_mcast_rule_that_hands_back_an_owned_key_fails_not_hangs(monkeypatch):
    """A pointer rule that sends on keys its node owns circulates them
    round the ring: the step bounds a copy's hops by the key count and
    raises, naming the request, so a plain ``sim.run()`` returns."""

    def hand_everything_on(self, message, runs, arcs):
        return self.id, 0, self._size, {self.successor: 0}

    monkeypatch.setattr(ChordNode, "mcast_pointers", hand_everything_on)
    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(8))  # 256 hops to the bound
    overlay.build_ring([10, 70, 130, 190])
    src = 10
    cast = message(src, MessageKind.SUBSCRIPTION)
    overlay.mcast(src, [src], cast)
    with pytest.raises(OverlayError, match=f"request {cast.request_id} passed"):
        sim.run()


def mapping_1_targets(rng, src):
    """Keys shaped like a Mapping 1 SK(σ): 3–4 runs of up to 600 keys,
    the first wrapping past 0, plus ``src``'s own id (distance 0)."""
    keys = {src}
    for index in range(rng.randrange(3, 5)):
        length = rng.randrange(2, 600)
        if index == 0:  # across 0
            first = KS.size - rng.randrange(1, length)
        else:
            first = rng.randrange(KS.size)
        keys.update((first + i) % KS.size for i in range(length))
    return keys


def mapping_1_casts(overlay_cls, options):
    """Twelve m-casts of Mapping 1-shaped targets on a warmed 80-node
    overlay: every one-hop send as ``(src, dst, hops, path, keys)``,
    and each cast's deliveries beside the owners of its keys."""
    sim = Simulator()
    overlay = overlay_cls(sim, KS, **options)
    rng = random.Random(13)
    overlay.build_ring(rng.sample(range(KS.size), 80))
    ids = overlay.node_ids()
    for src in ids:  # traffic first, so the location caches hold entries
        overlay.send(src, rng.randrange(KS.size), message(src))
    settle(sim)
    sent, delivered, casts = [], [], []
    transmit = overlay._network_transmit

    def record(src, dst, m):
        keys = m.key if m.target_keys is None else frozenset(m.target_keys)
        sent.append((src, dst, m.hops, m.path, keys))
        transmit(src, dst, m)

    overlay._network_transmit = record
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    for _ in range(12):
        src = rng.choice(ids)
        keys = mapping_1_targets(rng, src)
        delivered.clear()
        overlay.mcast(src, keys, message(src, MessageKind.SUBSCRIPTION))
        settle(sim)
        casts.append((sorted(delivered), sorted({overlay.owner_of(k) for k in keys})))
    return sent, casts


@pytest.mark.parametrize("overlay_cls, options", FIG4_OVERLAYS)
def test_mapping_1_shaped_mcast_sends_what_the_per_key_step_sent(
    overlay_cls, options, monkeypatch
):
    """Each m-cast of a few long runs, one across 0, plus the origin's
    own key delivers exactly once at each owner of a target key; and
    every branch — pointer, key set, hops, stamped path, in send order
    — is the one the per-key step sent (``per_key_mcast``, the step and
    rules before targets travelled as runs) on the same overlay."""
    sent, casts = mapping_1_casts(overlay_cls, options)
    for delivered, owners in casts:
        assert delivered == owners
    assert sum(isinstance(keys, frozenset) and len(keys) > 1 for *_, keys in sent) > 50
    per_key_mcast.install(monkeypatch)
    assert mapping_1_casts(overlay_cls, options) == (sent, casts)
