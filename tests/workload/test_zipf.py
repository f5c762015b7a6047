"""The Zipf sampler used for selective range centers."""

import bisect
import gc
import itertools
import random
import weakref
from array import array
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workload import zipf
from repro.workload.generator import SubscriptionGenerator
from repro.workload.spec import WorkloadSpec
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
    sampler = ZipfSampler(10_000, 1.2, random.Random(4))
    values = Counter(sampler.sample() for _ in range(3000))
    hottest, _ = values.most_common(1)[0]
    assert hottest != 0  # golden-ratio stride + random offset


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


def test_a_generators_samplers_share_one_table_that_goes_with_them():
    # An exponent no other test uses, so no other sampler holds the table.
    spec = WorkloadSpec(
        attr_max=20_000, selective_attributes=(0, 2), zipf_exponent=1.2345
    )
    key = (spec.domain_size, spec.zipf_exponent)
    generator = SubscriptionGenerator(spec, random.Random(8))
    first, second = (generator._zipf[a]._cdf for a in (0, 2))
    assert first is second  # built once, for both selective attributes
    assert zipf._CDF_CACHE[key] is first
    table = weakref.ref(first)
    del generator, first, second
    gc.collect()
    assert table() is None
    assert key not in zipf._CDF_CACHE


# The first draws at seed 7 over the paper's |Ω| = 1 000 001: how the
# table is built or how long it is held must not move them.
FIRST_DRAWS = {
    1.6: [782234, 339563, 339563, 901864, 339563, 575630, 498598, 339563],
    0.8: [152750, 80967, 519897, 398735, 275666, 775143, 789581, 404186],
}


@pytest.mark.parametrize("exponent", sorted(FIRST_DRAWS))
def test_first_draws_over_the_paper_domain_are_pinned(exponent):
    sampler = ZipfSampler(1_000_001, exponent, random.Random(7))
    assert [sampler.sample() for _ in range(8)] == FIRST_DRAWS[exponent]
