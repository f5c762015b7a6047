"""Pastry's next hop, read off the ring, equals the leaf-set/table rule.

:meth:`PastryNode._next_hop` holds no routing state: it finds the key's
owner and its own place with two bisects of the sorted ring and reads
one prefix row.  The reference below is the rule written over the
materialized structures instead — the node's leaf set and full prefix
table from ``compute_leaf_set`` / ``compute_routing_table``:

1. deliver if this node covers the key;
2. if the key lies in the leaf set's span, the leaf covering it;
3. else the prefix-table row for the first bit where id and key differ;
4. else the known node (row or leaf) sharing the longest prefix with
   the key, if it beats this node's;
5. else the ring successor.

Both must agree for every live node on sampled keys, on rings of 1–13,
50 and 500 nodes, and again after rounds of joins, leaves and crashes.
"""

import random

import pytest

from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.overlay.pastry.node import common_prefix_length
from repro.sim import Simulator

KS = KeySpace(13)
SIZES = list(range(1, 14)) + [50, 500]


def reference_hops(overlay, node_id, keys):
    """``{key: (next hop or None, rule)}`` by the leaf-set/table rule."""
    bits = overlay.keyspace.bits
    leaves = overlay.compute_leaf_set(node_id)
    table = overlay.compute_routing_table(node_id)
    return {
        key: _reference_hop(overlay, node_id, key, leaves, table, bits)
        for key in keys
    }


def _reference_hop(overlay, node_id, key, leaves, table, bits):
    if overlay.covers(node_id, key):
        return None, "deliver"
    if leaves:
        span_left = overlay.predecessor_of(leaves[0])
        if overlay.keyspace.in_open_closed(key, span_left, leaves[-1]):
            for leaf in leaves:
                if overlay.covers(leaf, key):
                    return leaf, "leaf"
    shared = common_prefix_length(node_id, key, bits)
    entry = table[shared] if shared < bits else None
    if entry is not None:
        return entry, "row"
    best, best_shared = None, shared
    for candidate in table + leaves:
        if candidate is None or candidate == node_id:
            continue
        candidate_shared = common_prefix_length(candidate, key, bits)
        if candidate_shared > best_shared:
            best, best_shared = candidate, candidate_shared
    if best is not None:
        return best, "best-prefix"
    return overlay.successor_of(node_id), "successor"


def sample_keys(overlay, rng, count):
    """``count`` random keys plus the ids of up to ``count // 4`` nodes
    and their two neighbours in key space, so the edges of spans and of
    owned intervals are hit."""
    keys = {rng.randrange(KS.size) for _ in range(count)}
    ids = overlay.node_ids()
    for node_id in rng.sample(ids, min(len(ids), count // 4)):
        keys.update(((node_id - 1) % KS.size, node_id, (node_id + 1) % KS.size))
    return sorted(keys)


def assert_next_hops_match(overlay, rng, count, rules):
    keys = sample_keys(overlay, rng, count)
    for node_id in overlay.node_ids():
        node = overlay.node(node_id)
        for key, (want, rule) in reference_hops(overlay, node_id, keys).items():
            assert node._next_hop(key) == want, (node_id, key, rule)
            rules.add(rule)


def churn(overlay, rng, steps):
    """Joins, graceful leaves and crashes; never empties the ring."""
    for _ in range(steps):
        if len(overlay) == 1 or rng.random() < 0.5:
            joiner = rng.randrange(KS.size)
            if not overlay.is_alive(joiner):
                overlay.join(joiner)
        else:
            victim = rng.choice(overlay.node_ids())
            if rng.random() < 0.5:
                overlay.leave(victim)
            else:
                overlay.crash(victim)


@pytest.mark.parametrize("n", SIZES)
def test_next_hop_equals_leaf_set_and_table_rule(n):
    rng = random.Random(n)
    overlay = PastryOverlay(Simulator(), KS)
    overlay.build_ring(rng.sample(range(KS.size), n))
    count = 40 if n >= 500 else 160
    rules = set()
    for _ in range(3):
        assert_next_hops_match(overlay, rng, count, rules)
        churn(overlay, rng, steps=max(2, n // 10))
    assert_next_hops_match(overlay, rng, count, rules)
    assert "deliver" in rules
    if n > 1:
        assert "leaf" in rules


def test_every_rule_is_exercised():
    """The reference takes its deliver, leaf, row and successor branches
    on the smaller sampled rings plus one of two far-apart clusters,
    where a key between them has an empty row and an owner beyond the
    leaf span.  Its best-prefix branch never fires: a node sharing a
    longer prefix with the key would lie in the empty row."""
    rings = [
        random.Random(n).sample(range(KS.size), n) for n in SIZES[:-1]
    ] + [list(range(10)) + list(range(6000, 6010))]
    rules = set()
    for index, ids in enumerate(rings):
        overlay = PastryOverlay(Simulator(), KS)
        overlay.build_ring(ids)
        assert_next_hops_match(overlay, random.Random(index), 60, rules)
    assert rules == {"deliver", "leaf", "row", "successor"}


def test_node_holds_no_routing_state():
    overlay = PastryOverlay(Simulator(), KS)
    overlay.build_ring(random.Random(1).sample(range(KS.size), 50))
    node = overlay.node(overlay.node_ids()[0])
    node._next_hop((node.id + KS.size // 2) % KS.size)
    assert set(vars(node)) == {"id", "_overlay"}
