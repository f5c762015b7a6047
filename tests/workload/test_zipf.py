"""The Zipf sampler used for selective range centers."""

import bisect
import itertools
import random
from array import array
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workload import zipf
from repro.workload.zipf import ZipfSampler


def test_validation():
    rng = random.Random(0)
    with pytest.raises(ConfigurationError):
        ZipfSampler(0, 1.0, rng)
    with pytest.raises(ConfigurationError):
        ZipfSampler(10, 0.0, rng)


def test_values_in_domain():
    sampler = ZipfSampler(1000, 0.99, random.Random(1))
    for _ in range(500):
        assert 0 <= sampler.sample() < 1000


def test_rank_one_dominates():
    sampler = ZipfSampler(10_000, 1.2, random.Random(2))
    ranks = Counter(sampler.sample_rank() for _ in range(5000))
    assert ranks[1] == max(ranks.values())
    # Rank 1 should dwarf, say, rank 100.
    assert ranks[1] > 10 * ranks.get(100, 0)


def test_skew_increases_concentration():
    def top_share(exponent):
        sampler = ZipfSampler(10_000, exponent, random.Random(3))
        ranks = [sampler.sample_rank() for _ in range(4000)]
        return sum(1 for r in ranks if r <= 10) / len(ranks)

    assert top_share(1.5) > top_share(0.5)


def test_spread_moves_hotspot_off_zero():
    sampler = ZipfSampler(10_000, 1.2, random.Random(4), spread=True)
    values = Counter(sampler.sample() for _ in range(3000))
    hottest, _ = values.most_common(1)[0]
    assert hottest != 0  # golden-ratio stride + random offset


def test_no_spread_maps_rank_to_value_directly():
    sampler = ZipfSampler(10_000, 1.2, random.Random(5), spread=False)
    values = Counter(sampler.sample() for _ in range(3000))
    hottest, _ = values.most_common(1)[0]
    assert hottest == 0  # rank 1 -> value 0


def test_single_value_domain():
    sampler = ZipfSampler(1, 1.0, random.Random(6))
    assert sampler.sample() == 0


def test_deterministic_given_rng():
    a = ZipfSampler(1000, 0.99, random.Random(7))
    b = ZipfSampler(1000, 0.99, random.Random(7))
    assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]


def list_cdf(size, exponent):
    """The table as three lists of boxed floats: the reference for the
    flat array, which must hold the same doubles."""
    weights = [1.0 / (k**exponent) for k in range(1, size + 1)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    return [c / total for c in cumulative]


@pytest.mark.parametrize(
    "size, exponent", [(1, 1.0), (1000, 0.99), (10_000, 1.2), (100_001, 1.6)]
)
def test_flat_table_equals_the_list_table(size, exponent):
    table = zipf._cdf(size, exponent)
    assert isinstance(table, array) and table.typecode == "d"
    assert table.buffer_info()[1] * table.itemsize == 8 * size
    reference = list_cdf(size, exponent)
    assert len(table) == len(reference)
    assert all(a == b for a, b in zip(table, reference))
    # A sampler drawing from either table draws the same ranks.
    sampler = ZipfSampler(size, exponent, random.Random(size))
    rng = random.Random(size)
    rng.randrange(size)  # the spread offset the sampler drew first
    drawn = [sampler.sample_rank() for _ in range(2000)]
    assert drawn == [
        bisect.bisect_left(reference, rng.random()) + 1 for _ in range(2000)
    ]
