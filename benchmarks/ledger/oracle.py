"""Independent delivery oracle for the ledger workloads.

Works from the generated ops alone: plain interval containment of every
publication in every subscription (numpy-vectorised, pure-Python
fallback), no matcher, mapping or overlay code of the program under
test.  It runs outside every timed region.

A (publication, subscription) pair is *expected* when the event
satisfies the subscription, the subscription was issued at least
``GRACE`` simulated seconds before the publication, and it is at least
``GRACE`` seconds from expiry — the margins keep installs and expiries
still in flight out of the verdict.  Subscribers of churn workloads are
protected nodes that never leave, so every subscriber is alive.

Every observed delivery must satisfy its subscription and arrive at its
subscriber, whether or not the pair was inside the margins; anything
else is a false positive and makes the run incorrect.
"""

from __future__ import annotations

import dataclasses

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image ships numpy
    np = None

#: Simulated seconds between install/expiry and a publication inside
#: which a pair is indeterminate.
GRACE = 2.0

_CHUNK = 512


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of checking one run's deliveries."""

    expected: int
    delivered: int
    false_positives: int

    @property
    def missed(self) -> int:
        return self.expected - self.delivered

    @property
    def delivered_share(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0


def _bounds(subscription, dimensions: int, top: int) -> tuple[list[int], list[int]]:
    low = [0] * dimensions
    high = [top] * dimensions
    for constraint in subscription.constraints:
        low[constraint.attribute] = constraint.low
        high[constraint.attribute] = constraint.high
    return low, high


def expected_pairs(ops) -> set[tuple[int, int]]:
    """Every ``(event_id, subscription_id)`` the system must deliver."""
    subs = [op for op in ops if op.kind == "sub"]
    pubs = [op for op in ops if op.kind == "pub"]
    if not subs or not pubs:
        return set()
    dimensions = len(pubs[0].event.values)
    top = max(a.size for a in pubs[0].event.space.attributes)
    bounds = [_bounds(op.subscription, dimensions, top) for op in subs]
    ready = [op.time + GRACE for op in subs]
    until = [
        float("inf") if op.ttl is None else op.time + op.ttl - GRACE
        for op in subs
    ]
    sids = [op.subscription.subscription_id for op in subs]
    pairs: set[tuple[int, int]] = set()
    if np is None:
        for pub in pubs:
            values = pub.event.values
            for index, (low, high) in enumerate(bounds):
                if ready[index] <= pub.time <= until[index] and all(
                    lo <= v <= hi for lo, v, hi in zip(low, values, high)
                ):
                    pairs.add((pub.event.event_id, sids[index]))
        return pairs
    low = np.array([b[0] for b in bounds], dtype=np.int64)
    high = np.array([b[1] for b in bounds], dtype=np.int64)
    ready_a = np.array(ready)
    until_a = np.array(until)
    for start in range(0, len(pubs), _CHUNK):
        chunk = pubs[start:start + _CHUNK]
        values = np.array([op.event.values for op in chunk], dtype=np.int64)
        times = np.array([op.time for op in chunk])
        hit = (times[:, None] >= ready_a[None, :]) & (
            times[:, None] <= until_a[None, :]
        )
        for axis in range(dimensions):
            column = values[:, axis, None]
            hit &= (column >= low[None, :, axis]) & (column <= high[None, :, axis])
        for row, col in zip(*np.nonzero(hit)):
            pairs.add((chunk[row].event.event_id, sids[col]))
    return pairs


def judge(ops, observed: list[tuple[int, int, int]], protected: frozenset[int]) -> Verdict:
    """Compare observed ``(node, event_id, subscription_id)`` deliveries
    with the oracle's expectation."""
    subs = {
        op.subscription.subscription_id: op for op in ops if op.kind == "sub"
    }
    events = {op.event.event_id: op.event for op in ops if op.kind == "pub"}
    if protected and any(op.node not in protected for op in subs.values()):
        raise AssertionError("churn workload subscriber is not protected")
    false_positives = 0
    seen: set[tuple[int, int]] = set()
    for node, event_id, sid in observed:
        op = subs.get(sid)
        event = events.get(event_id)
        if op is None or event is None or node != op.node:
            false_positives += 1
            continue
        values = event.values
        if all(
            c.low <= values[c.attribute] <= c.high
            for c in op.subscription.constraints
        ):
            seen.add((event_id, sid))
        else:
            false_positives += 1
    expected = expected_pairs(ops)
    return Verdict(len(expected), len(expected & seen), false_positives)
