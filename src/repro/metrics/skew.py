"""Load-skew analytics over per-entity load distributions.

The paper's selective-attribute mapping (Section 3) deliberately
concentrates subscriptions on few rendezvous nodes; under Zipf
workloads the resulting load is heavily skewed.  This module turns the
raw per-node / per-key load counts of
:class:`~repro.telemetry.load.LoadMeter` into the numbers a
load-balancing decision needs:

- :func:`top_k` — the hottest entities and their absolute loads;
- :func:`gini` — the Gini coefficient of the distribution (0 =
  perfectly even, → 1 = one entity carries everything);
- :func:`p99_mean_ratio` — how far the tail sits above the average;
- :class:`OverloadDetector` — a windowed detector that flags nodes
  whose load *since the previous sample* exceeds a configurable
  multiple of the ring median, emitting one
  :class:`OverloadEvent` per (sample, hot node).

All functions are deterministic: ties break toward the smaller entity
id, so repeated runs produce identical top-k lists and event streams.
"""

from __future__ import annotations

import dataclasses
import heapq
from operator import mul
from typing import Iterable, Mapping

from repro.metrics.stats import _percentile


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative sample.

    0.0 for an empty sample, a single value, or an all-equal (or
    all-zero) distribution; approaches ``(n - 1) / n`` when one entity
    carries the whole load.  Uses the sorted-rank formula
    ``G = (2 Σ i·xᵢ) / (n Σ xᵢ) - (n + 1) / n`` with 1-based ranks
    over the ascending sort.
    """
    return _gini(sorted(map(float, values)))


def _gini(data: list[float]) -> float:
    """:func:`gini` of an ascending list of floats."""
    n = len(data)
    if n < 2:
        return 0.0
    total = sum(data)
    if total <= 0:
        return 0.0
    weighted = sum(map(mul, range(1, n + 1), data))
    return (2.0 * weighted) / (n * total) - (n + 1) / n


def top_k(loads: Mapping[int, float], k: int) -> list[tuple[int, float]]:
    """The ``k`` hottest entities as ``(id, load)``, hottest first.

    Deterministic under ties: equal loads order by ascending id.
    """
    if k <= 0:
        return []
    # heapq.nsmallest(k, ...) is defined to equal sorted(...)[:k], so
    # this is the same deterministic ranking at O(n log k) instead of a
    # full sort — LoadMeter.sample calls this once per scope per sample.
    return heapq.nsmallest(k, loads.items(), key=lambda item: (-item[1], item[0]))


def p99_mean_ratio(values: Iterable[float]) -> float:
    """p99 / mean of the sample (0.0 when the mean is zero or no data).

    A ratio near 1 means the tail sits at the average — an even load;
    large ratios mean a few entities run far hotter than typical.
    """
    return _p99_mean_ratio(sorted(map(float, values)))


def _p99_mean_ratio(data: list[float]) -> float:
    """:func:`p99_mean_ratio` of an ascending list of floats: the p99
    and the clamped mean of :func:`~repro.metrics.stats.summarize`."""
    if not data:
        return 0.0
    mean = min(data[-1], max(data[0], sum(data) / len(data)))
    if mean == 0:
        return 0.0
    return _percentile(data, 0.99) / mean


@dataclasses.dataclass(frozen=True)
class SkewSummary:
    """One distribution's skew statistics (see :func:`skew_summary`)."""

    count: int
    total: float
    gini: float
    p99_mean_ratio: float
    top: tuple[tuple[int, float], ...]

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "gini": round(self.gini, 6),
            "p99_mean_ratio": round(self.p99_mean_ratio, 6),
            "top": [[entity, load] for entity, load in self.top],
        }


def skew_summary(loads: Mapping[int, float], k: int = 10) -> SkewSummary:
    """Summarize one per-entity load distribution, off one sort of its
    values (:class:`~repro.telemetry.load.LoadMeter` calls this once per
    scope per sample)."""
    values = sorted(map(float, loads.values()))
    return SkewSummary(
        count=len(values),
        total=sum(values, 0.0),
        gini=_gini(values),
        p99_mean_ratio=_p99_mean_ratio(values),
        top=tuple(top_k(loads, k)),
    )


@dataclasses.dataclass(frozen=True)
class OverloadEvent:
    """One node exceeding the overload threshold in one sample window."""

    t: float
    node: int
    window_load: float
    median: float
    ratio: float
    threshold: float

    def as_dict(self) -> dict:
        return {
            "type": "overload",
            "t": self.t,
            "node": self.node,
            "window_load": self.window_load,
            "median": round(self.median, 6),
            "ratio": round(self.ratio, 4),
            "threshold": self.threshold,
        }


class OverloadDetector:
    """Windowed overload detection against the ring median.

    Each call to :meth:`observe` closes one window: the per-node load
    *delta* since the previous observation is compared against the
    median delta across all observed nodes, and nodes strictly above
    ``threshold`` times that median are flagged.  A node absent from a
    sample takes no part in that window (no delta, no share of the
    median) and keeps its last cumulative load, so if it comes back it
    is charged only what it gained since.  The
    :class:`~repro.telemetry.load.LoadMeter` never omits a node that
    joined: an idle one is sampled at its unchanged load, a zero delta.

    Edge cases, pinned by ``tests/metrics/test_skew.py``:

    - an empty sample emits nothing (no ring, no median);
    - a single node is its own median (ratio 1), so it can only be
      flagged by a threshold below 1;
    - a zero median (quiet window) falls back to ``min_median``, so a
      lone node doing *any* work in an otherwise idle window is only
      flagged once its load clears ``threshold * min_median``.
    """

    def __init__(self, threshold: float = 4.0, min_median: float = 1.0) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if min_median <= 0:
            raise ValueError(f"min_median must be positive, got {min_median}")
        self.threshold = threshold
        self.min_median = min_median
        self.events: list[OverloadEvent] = []
        self._previous: dict[int, float] = {}

    def observe(self, now: float, loads: Mapping[int, float]) -> list[OverloadEvent]:
        """Close one window over cumulative ``loads``; return new events."""
        if not loads:
            return []
        previous = self._previous
        deltas = {
            node: load - previous.get(node, 0.0) for node, load in loads.items()
        }
        previous.update(loads)
        ordered = sorted(deltas.values())
        n = len(ordered)
        mid = n // 2
        median = (
            ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
        )
        floor = max(median, self.min_median)
        cutoff = self.threshold * floor
        fired = [
            OverloadEvent(
                t=now,
                node=node,
                window_load=delta,
                median=median,
                ratio=delta / floor,
                threshold=self.threshold,
            )
            for node, delta in sorted(deltas.items())
            if delta > cutoff
        ]
        self.events.extend(fired)
        return fired
