"""Memory budgets for what every run holds whether it uses it or not.

Peak RSS is gated by the ledger (``peak_rss_mb``, ``bytes_per_node``)
but only per workload and with run-to-run spread; these tests count
bytes exactly under :mod:`tracemalloc` and fail when a change puts the
weight back.

- **An empty rendezvous store.**  Every node owns one, and under
  Mapping 3 most never hold a subscription, so the store makes its
  matching engine at the first install.  Object sizes are a property of
  the interpreter, so the budget is keyed on the Python minor version:
  3.11 is measured, and an unknown version skips rather than fails.
- **The Zipf table.**  The paper's workload draws range centres from a
  Zipf law over a domain of a million values; the inverse-CDF table is
  one array of doubles, 8 bytes an entry, built without a list of
  boxed floats.

Each budget's comment gives the number the tree before this change
read, so a regression says what it undid.
"""

import sys
import tracemalloc

import pytest

from repro.core.events import EventSpace
from repro.core.rendezvous import SubscriptionStore
from repro.workload import zipf

SPACE = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_000)
STORES = 200

#: Bytes per empty store, by Python minor version.  3.11 reads brute
#: 162 and 478 for the others; before the engine was made on first use
#: it read brute 315, grid 1 427, radix 7 754 and vector 1 582.
EMPTY_STORE_BUDGET = {(3, 11): 600}

ZIPF_SIZE = 100_001
ZIPF_EXPONENT = 1.6
#: The array keeps 8.0 * N bytes and peaks at 16.3 * N; the list-built
#: table kept 32.0 * N and peaked at 96.0 * N.
ZIPF_RETAINED_BUDGET = 8 * ZIPF_SIZE + 4096
ZIPF_PEAK_BUDGET = 2.5 * 8 * ZIPF_SIZE


@pytest.mark.parametrize("engine", ["brute", "grid", "radix", "vector"])
def test_an_empty_store_is_a_few_hundred_bytes(engine):
    budget = EMPTY_STORE_BUDGET.get(sys.version_info[:2])
    if budget is None:
        pytest.skip(f"no store budget measured for Python {sys.version_info[:2]}")
    SubscriptionStore(SPACE, engine)  # one-time type and import costs
    stores = [None] * STORES
    tracemalloc.start()
    try:
        for i in range(STORES):
            stores[i] = SubscriptionStore(SPACE, engine)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / STORES <= budget, held / STORES


def test_the_zipf_table_is_one_array_of_doubles():
    zipf._CDF_CACHE.pop((ZIPF_SIZE, ZIPF_EXPONENT), None)
    tracemalloc.start()
    try:
        table = zipf._cdf(ZIPF_SIZE, ZIPF_EXPONENT)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == ZIPF_SIZE
    assert held <= ZIPF_RETAINED_BUDGET, held / ZIPF_SIZE
    assert peak <= ZIPF_PEAK_BUDGET, peak / ZIPF_SIZE
