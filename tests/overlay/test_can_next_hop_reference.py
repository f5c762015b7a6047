"""CAN forwarding decisions, held to a reference written with helpers.

``CanNode._next_hop`` answers ownership from the overlay's flat
key→owner table and does its torus arithmetic inline.  The reference
step here is written the slow way — ``bisect`` over ``zone_table()``
for every ownership question, ``decompose`` / ``zone_rectangle`` /
``rect_closest_point`` / ``torus_delta`` from ``morton.py`` for the
geometry — and the two must name the same next hop for every
(node, key) pair, on a fresh ring and after joins, leaves and crashes,
in all four ``express_links`` × ``zone_jumps`` combinations.  The
m-cast tests pin which (pointer, key set) branches a node transmits,
and in which order, against a key-order partition built from
``zone_table()`` and ``compute_express_links`` alone: on churned
60-node rings, on rings of two to five nodes whose links land in the
sender's own zone, and at one node before and after its zone is split
and regrown.
"""

import bisect
import random

import pytest

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.can.morton import (
    axis_sizes,
    decompose,
    morton_decode,
    morton_encode,
    rect_closest_point,
    torus_delta,
    zone_rectangle,
)
from repro.overlay.ids import KeyRuns, KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from tests.overlay.test_can_fastpath import churn

FLAG_COMBOS = [
    dict(express_links=express, zone_jumps=jumps)
    for express in (True, False)
    for jumps in (True, False)
]
FLAG_IDS = ["express+jumps", "express", "jumps", "unit-steps"]


class ReferenceRouter:
    """The routing step of one overlay state, from ground truth only."""

    def __init__(self, overlay: CanOverlay) -> None:
        self.bits = overlay.keyspace.bits
        self.size = overlay.keyspace.size
        self.x_size, self.y_size = axis_sizes(self.bits)
        table = overlay.zone_table()
        self.starts = [start for start, _ in table]
        self.owners = [owner for _, owner in table]
        self.express_links = overlay.express_links
        self.zone_jumps = overlay.zone_jumps

    def owner_of(self, key: int) -> int:
        # Index -1 is the last zone: it wraps over the keys below the
        # first start.
        return self.owners[bisect.bisect_right(self.starts, key) - 1]

    def cells_of(self, node_id: int) -> list[tuple[int, int]]:
        index = self.owners.index(node_id)
        start = self.starts[index]
        if len(self.starts) == 1:
            length = self.size
        else:
            end = self.starts[(index + 1) % len(self.starts)]
            length = (end - start) % self.size
        if start + length <= self.size:
            return decompose(start, length, self.bits)
        head = self.size - start
        return decompose(start, head, self.bits) + decompose(
            0, length - head, self.bits
        )

    def distance(self, ax: int, ay: int, bx: int, by: int) -> int:
        return abs(torus_delta(ax, bx, self.x_size)) + abs(
            torus_delta(ay, by, self.y_size)
        )

    def next_hop(self, node_id: int, key: int) -> int | None:
        if self.owner_of(key) == node_id:
            return None
        bits, x_size, y_size = self.bits, self.x_size, self.y_size
        tx, ty = morton_decode(key, bits)
        # Φ: the closest point of my zone, first cell to reach it.
        phi = px = py = None
        for start, csize in self.cells_of(node_id):
            cx, cy = rect_closest_point(
                zone_rectangle(start, csize, bits), tx, ty, x_size, y_size
            )
            distance = self.distance(cx, cy, tx, ty)
            if phi is None or distance < phi:
                phi, px, py = distance, cx, cy
        if phi > 1 and self.express_links:
            best_k, best_d = None, phi
            for k in range(bits):
                link_key = (node_id + (1 << k)) % self.size
                ex, ey = morton_decode(link_key, bits)
                distance = self.distance(ex, ey, tx, ty)
                if distance < best_d and self.owner_of(link_key) != node_id:
                    best_k, best_d = k, distance
            if best_k is not None and 2 * best_d <= phi:
                return self.owner_of((node_id + (1 << best_k)) % self.size)
        dx = torus_delta(px, tx, x_size)
        dy = torus_delta(py, ty, y_size)
        along_x = abs(dx) >= abs(dy) and dx != 0
        delta = dx if along_x else dy
        step = 1 if delta > 0 else -1
        remaining = abs(delta)

        def probe(units: int) -> int:
            if along_x:
                return morton_encode((px + step * units) % x_size, py, bits)
            return morton_encode(px, (py + step * units) % y_size, bits)

        probe_key = probe(1)
        next_owner = self.owner_of(probe_key)
        if remaining > 1 and self.zone_jumps and next_owner != node_id:
            # The piece of the adjacent zone around the probe key; a
            # wrapping zone is two pieces, split at the origin.
            index = bisect.bisect_right(self.starts, probe_key) - 1
            if index < 0:
                lo, hi = 0, self.starts[0]
            elif index == len(self.starts) - 1:
                lo, hi = self.starts[index], self.size
            else:
                lo, hi = self.starts[index], self.starts[index + 1]
            csize = 1
            while True:
                grown = csize * 2
                grown_start = probe_key - probe_key % grown
                if grown_start < lo or grown_start + grown > hi:
                    break
                csize = grown
            if csize > 1:
                x0, y0, width, height = zone_rectangle(
                    probe_key - probe_key % csize, csize, bits
                )
                nx, ny = morton_decode(probe_key, bits)
                if along_x:
                    extra = (x0 + width - 1 - nx) if step > 0 else (nx - x0)
                else:
                    extra = (y0 + height - 1 - ny) if step > 0 else (ny - y0)
                next_owner = self.owner_of(probe(min(extra + 2, remaining)))
        assert next_owner != node_id, "healthy geometry never probes itself"
        return next_owner


def assert_matches_reference(overlay: CanOverlay, keys) -> None:
    reference = ReferenceRouter(overlay)
    for node_id in overlay.node_ids():
        node = overlay.node(node_id)
        for key in keys:
            assert node._next_hop(key) == reference.next_hop(node_id, key), (
                node_id,
                key,
            )


@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
@pytest.mark.parametrize("bits", [8, 9])
def test_next_hop_equals_reference_for_every_pair(bits, flags):
    """Every (node, key) pair of a seeded n=60 ring, before and after a
    join/leave/crash sequence (even and odd key widths: a square and a
    2:1 torus)."""
    keyspace = KeySpace(bits)
    rng = random.Random(1500 + bits)
    overlay = CanOverlay(Simulator(), keyspace, **flags)
    overlay.build_ring(rng.sample(range(keyspace.size), 60))
    keys = range(keyspace.size)
    assert_matches_reference(overlay, keys)
    churn(overlay, rng, 30)
    assert_matches_reference(overlay, keys)


@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
def test_next_hop_equals_reference_on_small_wrapping_rings(flags):
    """Two to five nodes: zones wider than half the torus, one of them
    wrapping the origin, shrunk to a single node at the end."""
    keyspace = KeySpace(7)
    keys = range(keyspace.size)
    for seed in range(8):
        rng = random.Random(seed)
        overlay = CanOverlay(Simulator(), keyspace, **flags)
        overlay.build_ring(rng.sample(range(keyspace.size), 5))
        assert_matches_reference(overlay, keys)
        while len(overlay) > 1:
            overlay.leave(rng.choice(overlay.node_ids()))
            assert_matches_reference(overlay, keys)


def test_next_hop_samples_match_reference_at_paper_width():
    """The 13-bit space of the evaluation, sampled keys, under churn."""
    keyspace = KeySpace(13)
    rng = random.Random(13)
    overlay = CanOverlay(Simulator(), keyspace)
    overlay.build_ring(rng.sample(range(keyspace.size), 60))
    for _ in range(3):
        assert_matches_reference(overlay, rng.sample(range(keyspace.size), 60))
        churn(overlay, rng, 10)


# -- m-cast branches ----------------------------------------------------------


class RecordingNetwork(Network):
    """Keeps every one-hop send as ``(src, dst, target_keys)``."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.sent: list[tuple[int, int, KeyRuns]] = []

    def transmit(self, src, dst, message):
        self.sent.append((src, dst, message.target_keys))
        super().transmit(src, dst, message)


def expected_branches(overlay, node_id, targets):
    """The branches ``node_id`` sends for ``targets``, by brute force over
    the zone table and the express links, each as the runs it carries."""
    size = overlay.keyspace.size
    targets = set(targets)
    reference = ReferenceRouter(overlay)
    zone_start = {owner: start for start, owner in overlay.zone_table()}
    mine = {k for k in targets if reference.owner_of(k) == node_id}
    index = reference.owners.index(node_id)
    after = reference.starts[(index + 1) % len(reference.starts)]
    pointers = {reference.owner_of(after)}
    pointers.update(overlay.compute_express_links(node_id))
    pointers.discard(node_id)

    def offset(key):
        return (key - node_id) % size

    branches: dict[int, set[int]] = {}
    for key in targets - mine:
        _, pointer = max(
            (offset(zone_start[p]), p)
            for p in pointers
            if offset(zone_start[p]) <= offset(key)
        )
        branches.setdefault(pointer, set()).add(key)
    order = sorted(branches, key=lambda p: offset(zone_start[p]), reverse=True)
    return [(node_id, p, KeyRuns.from_keys(branches[p])) for p in order]


def mcast_overlay(bits, ids):
    sim = Simulator()
    network = RecordingNetwork(sim)
    overlay = CanOverlay(sim, KeySpace(bits), network)
    overlay.build_ring(ids)
    return sim, network, overlay


def branches_sent(sim, network, overlay, source, targets):
    """The branches ``source`` sends for an m-cast of ``targets``, read
    before any arrives (the previous cast is drained first)."""
    sim.run()
    del network.sent[:]
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=source,
    )
    overlay.mcast(source, targets, message)
    return list(network.sent)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_mcast_branches_and_their_transmit_order(seed):
    """The source of an m-cast splits the targets it does not own in key
    order: each key goes to the pointer — the owner of the key past the
    source's zone, or an express link — whose zone starts nearest before
    the key, clockwise from the source.  One branch per pointer, sent
    farthest first, nearest last; the wave after it obeys the same rule
    at every receiver, and every owner hears the cast exactly once."""
    keyspace = KeySpace(13)
    size = keyspace.size
    rng = random.Random(seed)
    sim = Simulator()
    network = RecordingNetwork(sim)
    overlay = CanOverlay(sim, keyspace, network)
    overlay.build_ring(rng.sample(range(size), 60))
    churn(overlay, rng, 25)
    delivered: list[int] = []
    overlay.set_deliver(lambda node_id, message: delivered.append(node_id))
    reference = ReferenceRouter(overlay)

    source = rng.choice(overlay.node_ids())
    targets = frozenset(rng.sample(range(size), 40))
    message = OverlayMessage(
        kind=MessageKind.PUBLICATION,
        payload=None,
        request_id=next_request_id(),
        origin=source,
    )
    overlay.mcast(source, targets, message)
    first_wave = list(network.sent)
    assert first_wave == expected_branches(overlay, source, targets)
    assert len(first_wave) > 1

    # Every later wave: each receiver re-partitions the key sets it was
    # handed.  Receivers run in the order they were first sent to (one
    # inbox bucket per destination and tick, drained in send order).
    wave = first_wave
    while wave:
        del network.sent[:]
        sim.run_until(sim.now + 0.05)
        inboxes: dict[int, list[KeyRuns]] = {}
        for _, dst, keys in wave:
            inboxes.setdefault(dst, []).append(keys)
        assert all(len(key_sets) == 1 for key_sets in inboxes.values())
        expected = [
            branch
            for dst, key_sets in inboxes.items()
            for keys in key_sets
            for branch in expected_branches(overlay, dst, keys)
        ]
        assert network.sent == expected
        wave = list(network.sent)
    assert sorted(delivered) == sorted({reference.owner_of(k) for k in targets})


def retessellate(overlay, starts, owners):
    """Rewrite the zones (the first at key 0), the key→owner table and
    the geometry entries.  An owner may sit anywhere in its zone, deeper
    than a join ever leaves it."""
    ends = starts[1:] + [overlay.keyspace.size]
    for start, end, owner in zip(starts, ends, owners):
        overlay._assign_keys(start, end - start, owner)
        overlay._place(owner, (start, end - start))


@pytest.mark.parametrize("bits", [4, 6])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_mcast_branches_on_tiny_rings(bits, n):
    """Rings of a few nodes, where one zone spans more than half the key
    space and links land in the sender's own zone: link ``j`` (the key
    ``id + 2^j`` at or before a key at distance ``d``, ``j = d.bit_length()
    - 1``) inside a wide zone, and link ``j + 1`` wrapping back into it
    when the owner sits deep in a zone wider than half the ring.
    Neither is a pointer.  Every node casts to every key and to random
    subsets, on joined rings and on one such deep-owner tessellation."""
    size = 1 << bits
    overlays = []
    for seed in range(5):
        rng = random.Random(seed)
        overlays.append(mcast_overlay(bits, rng.sample(range(size), n)))
    tail = size // 4  # n - 1 zones in the last quarter; the first is deep
    starts = [0] + [size - tail + i * tail // (n - 1) for i in range(n - 1)]
    owners = [size * 5 // 8] + starts[1:]
    overlays.append(mcast_overlay(bits, owners))
    retessellate(overlays[-1][2], starts, owners)
    near = wrapped = 0  # (sender, key) pairs whose link j / j + 1 is mine
    rng = random.Random(bits * n)
    for sim, network, overlay in overlays:
        for source in overlay.node_ids():
            for key in range(size):
                link = 1 << ((key - source) % size).bit_length()  # 2^(j+1)
                if overlay.owner_of(key) != source:
                    near += overlay.owner_of((source + link // 2) % size) == source
                    wrapped += link < size and (
                        overlay.owner_of((source + link) % size) == source
                    )
            for targets in [frozenset(range(size))] + [
                frozenset(rng.sample(range(size), rng.randint(1, size)))
                for _ in range(4)
            ]:
                assert branches_sent(sim, network, overlay, source, targets) == (
                    expected_branches(overlay, source, targets)
                )
    assert near > 0 and wrapped > 0


def test_mcast_pointers_follow_a_split_and_an_absorb():
    """One node casts to every key before and after a join splits its
    zone, and again after it absorbs the joiner's part: every cast
    partitions on the zones of that moment, never on ones the node saw
    before.  Its successor is none of its express links, so once the
    joiner is gone no pointer stands for the joiner's keys."""
    size = 1 << 8
    rng = random.Random(8)
    sim, network, overlay = mcast_overlay(8, rng.sample(range(size), 12))
    targets = frozenset(range(size))

    def last_key(node):
        start, length = overlay.zone_of(node)
        return (start + length - 1) % size

    source = next(
        node
        for node in overlay.node_ids()
        if last_key(node) != node
        and overlay.successor_of(node) not in overlay.compute_express_links(node)
    )

    def cast():
        wave = branches_sent(sim, network, overlay, source, targets)
        assert wave == expected_branches(overlay, source, targets)
        return wave

    zone, waves = overlay.zone_of(source), [cast()]
    joiner = last_key(source)
    overlay.join(joiner)  # past my id: the joiner takes the upper part
    assert overlay.zone_of(source)[1] < zone[1]
    waves.append(cast())
    overlay.leave(joiner)  # I am its heir
    assert overlay.zone_of(source) == zone
    waves.append(cast())
    assert waves[0] != waves[1] and waves[2] == waves[0]
