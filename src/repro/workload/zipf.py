"""Finite-domain Zipf sampling.

Selective subscription ranges center on Zipf-distributed values
(Section 5.1): a few hot values attract most subscriptions, modelling
skewed popularity (stock tickers, event types).  The sampler draws rank
``k`` from ``P(k) ∝ 1/k^s`` over ``k = 1..N`` by inverse-CDF on a
precomputed cumulative table; tables are cached per ``(N, s)`` since the
harness builds many generators with the paper's fixed parameters.

The table is one ``array('d')``, 8 bytes an entry where a list of boxed
floats costs about 32, fed by generators that compute the list version's
doubles in the same order, so every draw is bit-identical.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array

from repro.errors import ConfigurationError

_CDF_CACHE: dict[tuple[int, float], array] = {}


def _cdf(size: int, exponent: float) -> array:
    key = (size, exponent)
    cached = _CDF_CACHE.get(key)
    if cached is not None:
        return cached
    weights = (1.0 / (k**exponent) for k in range(1, size + 1))
    cdf = array("d", itertools.accumulate(weights))
    total = cdf[-1]
    cdf = array("d", (c / total for c in cdf))
    # An array grown item by item over-allocates by up to 1/16; the
    # slice is an exact-size copy.
    cdf = cdf[:]
    _CDF_CACHE[key] = cdf
    return cdf


class ZipfSampler:
    """Draws values in ``[0, size)`` with Zipf-distributed popularity.

    Rank 1 (the hottest) maps to a position chosen by ``shuffle_seed``
    scattering: ranks are mapped to domain values via a deterministic
    affine permutation, so the hot spot is not always value 0 (which
    would pin every hot range against the domain edge).

    Args:
        size: Domain size N.
        exponent: Skew s > 0 (s -> 0 approaches uniform).
        rng: Source of randomness for draws.
        spread: If True (default), apply the affine rank-to-value
            permutation; if False, rank k maps to value k-1 directly.
    """

    def __init__(
        self,
        size: int,
        exponent: float,
        rng: random.Random,
        spread: bool = True,
    ) -> None:
        if size < 1:
            raise ConfigurationError("Zipf domain must be non-empty")
        if exponent <= 0:
            raise ConfigurationError("Zipf exponent must be positive")
        self._size = size
        self._rng = rng
        self._cdf = _cdf(size, exponent)
        if spread:
            # Affine permutation k -> (a*k + b) mod N with gcd(a, N) = 1.
            self._stride = self._coprime_stride(size)
            self._offset = rng.randrange(size)
        else:
            self._stride = 1
            self._offset = 0

    @staticmethod
    def _coprime_stride(size: int) -> int:
        from math import gcd

        candidate = max(1, int(size * 0.6180339887))  # golden-ratio stride
        while gcd(candidate, size) != 1:
            candidate += 1
        return candidate

    def sample_rank(self) -> int:
        """Draw a 1-based Zipf rank."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u) + 1

    def sample(self) -> int:
        """Draw a domain value in ``[0, size)``."""
        rank = self.sample_rank()
        return ((rank - 1) * self._stride + self._offset) % self._size
