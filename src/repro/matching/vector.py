"""Vectorized rendezvous matching (numpy).

:class:`VectorizedGridMatcher` keeps the anchor-attribute bucket grid
of :class:`~repro.matching.index.GridIndexMatcher` for candidate
pruning, but hoists the stored constraint bounds into two flat
``(rows, attributes)`` int64 matrices — the same
array-of-struct-to-struct-of-arrays move the sharded kernel applies to
overlay state — and verifies a whole candidate set with two vectorized
comparisons instead of one Python ``matches`` call per candidate.  An
unconstrained attribute is stored as the full domain ``[0, size - 1]``
(a row is the subscription's compiled ``lows`` / ``highs``), so the
inclusive interval test is the whole matching semantics.  The matrices
are allocated at construction; a store makes its engine when it
reaches :data:`~repro.core.rendezvous.SCAN_LIMIT` entries.

Candidate generation, candidate sets and the sorted-by-subscription-id
result order are inherited unchanged, so this engine is behaviorally
identical to the grid engine; the parity suite pins it against both
the grid engine and the brute-force oracle.

numpy is optional everywhere in this repository: the module imports
with ``numpy = None`` when it is absent, and
:func:`make_vector_matcher` silently falls back to the scalar grid
engine so ``matcher="vector"`` configurations stay runnable.  Only this
module imports numpy, and nothing imports this module until a store
builds its first ``"vector"`` engine (or code names one of its exports
on :mod:`repro.matching`), so a run on another engine never loads it.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by the import
    import numpy
except ImportError:  # pragma: no cover - container ships numpy
    numpy = None  # type: ignore[assignment]

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError
from repro.matching.base import Matcher
from repro.matching.index import GridIndexMatcher

HAVE_NUMPY = numpy is not None

#: Initial row capacity of the bound matrices (doubles on demand).
_INITIAL_ROWS = 64


class VectorizedGridMatcher(GridIndexMatcher):
    """Grid-pruned, numpy-verified matcher (requires numpy)."""

    def __init__(self, space: EventSpace, buckets_per_attribute: int = 256) -> None:
        if numpy is None:
            raise DataModelError(
                "VectorizedGridMatcher requires numpy; use "
                "make_vector_matcher() for the graceful fallback"
            )
        super().__init__(space, buckets_per_attribute)
        shape = (_INITIAL_ROWS, len(space.attributes))
        self._lows = numpy.zeros(shape, dtype=numpy.int64)
        self._highs = numpy.zeros(shape, dtype=numpy.int64)
        self._row_of: dict[int, int] = {}
        self._free = list(range(_INITIAL_ROWS - 1, -1, -1))

    def add(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            return
        super().add(subscription)
        if not self._free:
            rows, dims = self._lows.shape
            grown_lows = numpy.zeros((rows * 2, dims), dtype=numpy.int64)
            grown_highs = numpy.zeros((rows * 2, dims), dtype=numpy.int64)
            grown_lows[:rows] = self._lows
            grown_highs[:rows] = self._highs
            self._lows = grown_lows
            self._highs = grown_highs
            self._free = list(range(rows * 2 - 1, rows - 1, -1))
        row = self._free.pop()
        self._row_of[sid] = row
        self._lows[row] = subscription.lows
        self._highs[row] = subscription.highs

    def remove(self, subscription_id: int) -> bool:
        removed = super().remove(subscription_id)
        if removed:
            self._free.append(self._row_of.pop(subscription_id))
        return removed

    def match(self, event: Event) -> list[Subscription]:
        candidates: set[int] = set(self._catch_all)
        grid = self._grid
        widths = self._widths
        for attribute, value in enumerate(event.values):
            buckets = grid[attribute]
            if not buckets:
                continue
            members = buckets.get(value // widths[attribute])
            if members:
                candidates.update(members)
        if not candidates:
            return []
        sids = sorted(candidates)
        rows = [self._row_of[sid] for sid in sids]
        values = numpy.asarray(event.values, dtype=numpy.int64)
        lows = self._lows[rows]
        highs = self._highs[rows]
        hits = ((lows <= values) & (values <= highs)).all(axis=1)
        subscriptions = self._subscriptions
        matched = [
            subscriptions[sid]
            for sid, hit in zip(sids, hits)
            if hit
        ]
        work = self.work
        if work is not None:
            work.candidates += len(sids)
            work.verified += len(sids)
            work.matched += len(matched)
        return matched


def make_vector_matcher(
    space: EventSpace, buckets_per_attribute: int = 256
) -> Matcher:
    """The vectorized engine, or the scalar grid engine without numpy."""
    if numpy is None:
        return GridIndexMatcher(space, buckets_per_attribute)
    return VectorizedGridMatcher(space, buckets_per_attribute)
