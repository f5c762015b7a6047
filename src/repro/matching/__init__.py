"""Subscription-matching engines.

Rendezvous nodes match each incoming event against their stored
subscriptions (Section 3.2).  A rendezvous store below
:data:`~repro.core.rendezvous.SCAN_LIMIT` entries holds no engine and
scans its entries' compiled rows itself; the store that reaches the
limit builds one of four interchangeable engines:

- :class:`~repro.matching.brute.BruteForceMatcher` -- the obvious
  reference implementation (test oracle);
- :class:`~repro.matching.index.GridIndexMatcher` -- a per-attribute
  bucket-grid index in the spirit of the fast matching literature the
  paper cites ([6], Fabret et al., SIGMOD 2001), used where stores are
  large (rendezvous nodes under skew, the workload generator's
  matching-probability control);
- :class:`~repro.matching.radix.RadixBitmapMatcher` -- a radix-block
  index with per-attribute occupied-level bitmaps, exact on the anchor
  attribute; the better fit when stored constraints are mostly
  equalities (one hash probe per attribute, no anchor false
  candidates);
- :class:`~repro.matching.vector.VectorizedGridMatcher` -- the grid
  engine with numpy-vectorized candidate verification over flat bound
  matrices (optional; falls back to the scalar grid engine via
  :func:`~repro.matching.vector.make_vector_matcher` without numpy).
  Its module, and with it numpy, is imported only when first named:
  the first store that builds a ``"vector"`` engine, or a lookup of
  ``HAVE_NUMPY``, ``VectorizedGridMatcher`` or ``make_vector_matcher``
  on this package.  A run on any other engine never loads numpy.

All expose add/remove/match over :class:`repro.core.Subscription` and
return matches in subscription-id order; brute force remains the
oracle the others are tested against.  The
engines differ in how they find *candidates*; the predicate itself is
one loop over the subscription's compiled bound rows
(``Subscription.rows``, built once at construction), run inside each
engine's verification of a candidate set
(:meth:`~repro.matching.base.IndexedMatcher._verify` for grid and
radix) with the event-space check done once per ``match`` rather than
once per candidate.

Orthogonal to the engines, :class:`~repro.matching.covering.
CoveringIndex` maintains the covering partial order over a store's
subscriptions so the engine only ever sees the least-covered roots;
covered subscriptions are reached by a pruned DFS on a root hit.  Its
scans compare the same compiled rows (``proper_rows`` against
``lows`` / ``highs``) in place.
"""

from repro.matching.base import Matcher
from repro.matching.brute import BruteForceMatcher
from repro.matching.covering import CoveringIndex
from repro.matching.index import GridIndexMatcher
from repro.matching.radix import RadixBitmapMatcher

#: Names this package re-exports from ``repro.matching.vector``, which
#: imports numpy: resolved on first use (PEP 562), not at import.
_VECTOR_NAMES = ("HAVE_NUMPY", "VectorizedGridMatcher", "make_vector_matcher")

__all__ = [
    "HAVE_NUMPY",
    "Matcher",
    "BruteForceMatcher",
    "CoveringIndex",
    "GridIndexMatcher",
    "RadixBitmapMatcher",
    "VectorizedGridMatcher",
    "make_vector_matcher",
]


def __getattr__(name: str):
    if name in _VECTOR_NAMES:
        from repro.matching import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
