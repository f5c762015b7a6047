"""The location cache against a reference LRU, order-exact.

``LocationCache`` holds the ids a node was touched by, each with the
interval it stamped — a bare predecessor on Chord, a ``(start, length)``
zone on CAN, None when it was named without one.  Writers only append
flat ``id, interval`` pairs to its log; ``fold`` applies the log when
the cache is next read, or once the log passes ``FOLD_AT`` slots.  The
rule that makes this exact: **a fold may span any touches that have no
cached read between them** — an LRU after any touch sequence holds the
``capacity`` most recently touched distinct ids in last-touch order,
whether it evicted after every sequence or evicts once at the end.

Pinned here against an independent reference that evicts after every
sequence: same contents, same intervals (the last stamp wins) *and same
LRU order* (hence the same eviction victims), across runs longer than
the fold bound, ``forget`` between touches, capacity 1, sequences longer
than the capacity and self-only sequences — once on the helper, once
with every touch arriving through ``ChordNode.receive`` and once through
``CanNode.receive``.  ``test_learn_batch.py`` is the older, Chord-only
leg of the same property (merged table, ``_next_hop``, ``learn``).
Then the cache's distance-sorted view: what a fold journals for it, and
a state machine of touches, folds past capacity, forgets and voided
views after which every read of the view is the entries in clockwise
order.  Then the covering rule CAN routes by.  And one mechanism stays
one: the helper knows no overlay, and no overlay keeps a fold of its
own.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.location_cache import FOLD_AT, LocationCache
from repro.sim import Simulator
from tests.test_observer_seam import SRC, imported_modules

KS = KeySpace(13)
IDS = list(range(0, 8192, 64))  # 128 nodes, owner 0 among them


def random_zone(rng):
    return rng.randrange(KS.size), rng.randrange(1, 99)


class ReferenceLRU:
    """The location cache as its definition reads: least recent first,
    each id with the interval its last touch carried (None: bare)."""

    def __init__(self, owner: int, capacity: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.order: list[int] = []
        self.arcs: dict[int, object] = {}

    def learn(self, node_ids) -> None:
        self.touch([(node_id, None) for node_id in node_ids])

    def touch(self, arcs) -> None:
        """One sequence of ``(id, interval)`` touches, then evict."""
        for node_id, stamped in arcs:
            if node_id == self.owner:
                continue
            if node_id in self.order:
                self.order.remove(node_id)
            self.arcs[node_id] = stamped
            self.order.append(node_id)
        for evicted in self.order[: max(0, len(self.order) - self.capacity)]:
            self.forget(evicted)

    def forget(self, node_id: int) -> None:
        if node_id in self.order:
            self.order.remove(node_id)
            del self.arcs[node_id]


def cached_ids(cache: LocationCache) -> list[int]:
    """The cached ids, least recently touched first, log folded in."""
    cache.fold()
    return list(cache.entries)


def routed_to(node, path) -> OverlayMessage:
    """A routed message addressed to ``node``'s own id — delivered there,
    going no further — whose hops stamped the flat ``path``."""
    return OverlayMessage(
        kind=MessageKind.CONTROL,
        payload=None,
        request_id=next_request_id(),
        origin=path[0],
        key=node.id,
        hops=len(path) // 2,
        path=path,
    )


# -- three writers of one cache ----------------------------------------------


def helper_subject(capacity: int):
    cache = LocationCache(0, capacity)

    def touch(pairs) -> None:  # the writer's contract, as the nodes spell it
        cache.log += [slot for pair in pairs for slot in pair]
        if len(cache.log) > FOLD_AT:
            cache.fold()

    return cache, touch, random_zone


def chord_subject(capacity: int):
    overlay = ChordOverlay(Simulator(), KS, cache_capacity=capacity)
    overlay.build_ring(IDS)
    node = overlay.node(0)

    def touch(pairs) -> None:  # one message, every hop's stamp learned
        node.receive(routed_to(node, tuple(s for pair in pairs for s in pair)))

    return node._cache, touch, lambda rng: rng.randrange(KS.size)


def can_subject(capacity: int):
    overlay = CanOverlay(Simulator(), KS, cache_capacity=capacity)
    overlay.build_ring(IDS)
    node = overlay.node(0)

    def touch(pairs) -> None:  # a delivery learns the origin's stamp only
        for pair in pairs:
            node.receive(routed_to(node, pair + (4096, (4096, 64))))

    return node._cache, touch, random_zone


SUBJECTS = {"helper": helper_subject, "chord": chord_subject, "can": can_subject}


@pytest.mark.parametrize("capacity", [1, 3, 16, 200])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_cache_matches_reference_lru_in_content_interval_and_order(subject, capacity):
    rng = random.Random(f"{subject}:{capacity}")
    cache, touch, interval = SUBJECTS[subject](capacity)
    oracle = ReferenceLRU(0, capacity)
    for _ in range(60):
        # Anything from one short sequence to a run several times the
        # fold bound with no read in between; owner-only sequences and
        # restamped ids included.
        for _ in range(rng.choice((1, 2, 5, 40))):
            ids = [rng.choice(IDS) for _ in range(rng.randint(1, 7))]
            pairs = [(node_id, interval(rng)) for node_id in ids]
            touch(pairs)
            oracle.touch(pairs)
            assert len(cache.log) <= FOLD_AT  # bounded without a read
        if rng.random() < 0.3:
            victim = rng.choice(IDS)
            assert cache.forget(victim) == (victim in oracle.order)
            oracle.forget(victim)
        assert cached_ids(cache) == oracle.order
        assert cache.entries == oracle.arcs
        assert list(cache.entries) == oracle.order


def test_capacity_zero_holder_logs_nothing():
    for subject in ("chord", "can"):
        cache, touch, interval = SUBJECTS[subject](0)
        touch([(64, interval(random.Random(1))), (128, interval(random.Random(2)))])
        assert cache.log == [] and cached_ids(cache) == []


# -- the view -------------------------------------------------------------------


def test_fold_journals_what_entered_and_what_left():
    cache = LocationCache(0, 8)
    cache.log += (64, 1, 128, 2, 0, 9, 64, 3)
    cache.fold()
    assert cache.journal is None  # no view read yet: nothing to journal
    cache.log += (192, 4, 256, 5, 320, 6, 384, 7, 448, 8, 512, 9)
    cache.fold()
    cache.materialize(KS.size)
    assert cache.journal == []
    assert cache.ids == [64, 128, 192, 256, 320, 384, 448, 512]
    cache.log += (576, 10)  # 576 enters; 128, the least recent, leaves
    assert cache.fold() is None
    assert cache.journal == [576, 128]
    cache.log += (64, 11)  # only an LRU position moves
    cache.fold()
    assert cache.journal == [576, 128]
    assert cache.forget(192)
    assert cache.journal == [576, 128, 192]
    cache.materialize(KS.size)
    assert cache.journal == []
    assert cache.ids == cache.dists == [64, 256, 320, 384, 448, 512, 576]
    # Six changes outgrow a quarter of the view: it is voided, not
    # journaled, and the next read re-sorts.
    cache.log += (640, 12, 704, 13, 768, 14)
    cache.fold()
    assert cache.journal is None and cache.ids == cache.dists == ()
    assert cache.log == []
    cache.materialize(KS.size)
    assert cache.ids == cache.dists == sorted(cache.entries)


class CacheViewMachine(RuleBasedStateMachine):
    """Touches (each a fold once the log passes ``FOLD_AT``), folds past
    capacity, forgets and voided views in any order: the entries stay
    the reference LRU's, a void view holds nothing, and every read of
    the view is the entries by clockwise distance from the owner."""

    @initialize(owner=st.sampled_from(IDS), capacity=st.integers(0, 12))
    def start(self, owner, capacity):
        self.cache = LocationCache(owner, capacity)
        self.oracle = ReferenceLRU(owner, capacity)

    @rule(ids=st.lists(st.sampled_from(IDS), min_size=1, max_size=12))
    def touch(self, ids):
        pairs = [(node_id, node_id - 1) for node_id in ids]
        self.cache.log += [slot for pair in pairs for slot in pair]
        if len(self.cache.log) > FOLD_AT:
            self.cache.fold()
        self.oracle.touch(pairs)

    @rule()
    def fold(self):
        self.cache.fold()
        assert list(self.cache.entries) == self.oracle.order

    @rule(node_id=st.sampled_from(IDS))
    def forget(self, node_id):
        assert self.cache.forget(node_id) == (node_id in self.oracle.order)
        self.oracle.forget(node_id)

    @rule()
    def read_view(self):
        cache = self.cache
        cache.fold()
        cache.materialize(KS.size)
        owner = cache.owner
        expected = sorted(cache.entries, key=lambda n: (n - owner) % KS.size)
        assert list(cache.ids) == expected
        assert list(cache.dists) == [(n - owner) % KS.size for n in expected]
        assert cache.journal == []

    @invariant()
    def a_void_view_holds_nothing(self):
        cache = getattr(self, "cache", None)
        if cache is not None and cache.journal is None:
            assert cache.ids == cache.dists == ()


TestCacheView = CacheViewMachine.TestCase
TestCacheView.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# -- the covering rule ----------------------------------------------------------


def covering(cache, key, dead=()):
    return cache.covering(key, KS.size, lambda n: n not in dead)


def test_covering_is_the_live_id_whose_interval_holds_the_key():
    cache = LocationCache(0, 8)
    cache.log += (100, (90, 20), 500, (400, 200), 8000, (8000, 250))
    assert covering(cache, 95) == 100
    assert covering(cache, 109) == 100
    assert covering(cache, 110) is None  # half-open: [start, start + length)
    assert covering(cache, 599) == 500
    assert covering(cache, 50) == 8000  # the zone wraps the origin
    assert covering(cache, 300) is None


def test_covering_prefers_the_latest_touch_and_reads_the_log_first():
    cache = LocationCache(0, 8)
    cache.log += (100, (0, 200), 300, (150, 200))
    assert covering(cache, 160) == 300
    cache.log += (100, (0, 200))  # touched again, still in the log
    assert covering(cache, 160) == 100
    cache.log += (100, (0, 100))  # restamped narrower: the last stamp wins
    assert covering(cache, 160) == 300


def test_covering_forgets_the_dead_ids_it_meets():
    cache = LocationCache(0, 8)
    cache.log += (100, (0, 200), 300, (150, 200), 500, (400, 200))
    assert covering(cache, 160, dead={300, 500}) == 100
    assert cached_ids(cache) == [100, 500]  # 300 met and forgotten, 500 never met
    assert covering(cache, 160, dead={100}) is None
    assert cached_ids(cache) == [500]


# -- one mechanism ---------------------------------------------------------------


def test_helper_imports_no_overlay_and_no_overlay_folds_for_itself():
    overlay = SRC / "repro" / "overlay"
    imports = imported_modules(overlay / "location_cache.py")
    assert not [
        name for name in imports
        if name.startswith(("repro.overlay.chord", "repro.overlay.can",
                            "repro.overlay.pastry"))
    ], imports
    for module in ("chord/node.py", "can/overlay.py"):
        text = (overlay / module).read_text()
        assert "_touches" not in text and "islice" not in text, module
