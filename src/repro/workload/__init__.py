"""Synthetic workload generation per the paper's Section 5.1.

The evaluation workload: a 4-attribute integer event space with values
in [0, ATTR_MAX = 1,000,000]; each subscription constrains every
attribute with a range whose width is uniform in [1, X] — X being 3% of
ATTR_MAX for *non-selective* attributes and 0.1% for *selective* ones —
centered uniformly (non-selective) or Zipf (selective); subscriptions
arrive at a regular period (5 s), publications as a Poisson process
(mean 5 s), interleaved; publications match at least one live
subscription with a configurable *matching probability* (default 0.5);
stored subscriptions expire after a configurable time.  A workload is
one :class:`~repro.workload.trace.Trace`: a time-ordered op list.
"""

from repro.workload.spec import DEFAULT_ATTR_MAX, ChurnSpec, WorkloadSpec
from repro.workload.generator import EventGenerator, SubscriptionGenerator
from repro.workload.trace import Trace, TraceOp
from repro.workload.zipf import ZipfSampler

__all__ = [
    "DEFAULT_ATTR_MAX",
    "WorkloadSpec",
    "EventGenerator",
    "SubscriptionGenerator",
    "ChurnSpec",
    "Trace",
    "TraceOp",
    "ZipfSampler",
]
