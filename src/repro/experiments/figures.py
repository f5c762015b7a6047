"""One harness per paper figure (Section 5.2).

Each ``figureN`` function runs the corresponding parameter sweep and
returns a list of row dicts — the same series the paper plots.  The
defaults are scaled down from the paper (which injects 25 000
subscriptions into a 500-node ring) so that the whole suite runs in
minutes on a laptop; pass ``subscriptions=25000`` etc. for paper scale.
The *shapes* the paper reports (orderings, crossovers, relative
factors) hold at the reduced scale; EXPERIMENTS.md records both.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.core import RoutingMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.workload.spec import WorkloadSpec

MAPPINGS = ("attribute-split", "keyspace-split", "selective-attribute")

#: Paper numbering of the mappings, for report labels.
MAPPING_LABEL = {
    "attribute-split": "Mapping 1 (Attribute-Split)",
    "keyspace-split": "Mapping 2 (Key-Space-Split)",
    "selective-attribute": "Mapping 3 (Selective-Attribute)",
}


def _selective_tuple(selective_attributes: int) -> tuple[int, ...]:
    """The first k attributes are marked selective (paper uses 0 or 1)."""
    return tuple(range(selective_attributes))


# ---------------------------------------------------------------------------
# Figure 5: hops per request, three mappings x {unicast, m-cast}
# ---------------------------------------------------------------------------

def figure5(
    subscriptions: int = 300,
    publications: int = 300,
    nodes: int = 500,
    seed: int = 42,
) -> list[dict]:
    """Fig. 5: total one-hop messages per request by mapping and routing.

    Paper setup: subscriptions never expire, all attributes
    non-selective.  Expected shape: subscription cost under unicast is
    huge for Mappings 1 and 3 (many keys) and small for Mapping 2;
    m-cast cuts the many-key cases by >90%.  Publications cost ~1 key's
    routing in Mappings 1-2 and ~4 keys' in Mapping 3.
    """
    rows = []
    workload = WorkloadSpec(subscription_ttl=None)
    for mapping in MAPPINGS:
        for routing in (RoutingMode.UNICAST, RoutingMode.MCAST):
            result = run_experiment(
                ExperimentConfig(
                    mapping=mapping,
                    routing=routing,
                    nodes=nodes,
                    seed=seed,
                    subscriptions=subscriptions,
                    publications=publications,
                    workload=workload,
                )
            )
            rows.append(
                {
                    "mapping": mapping,
                    "routing": routing.value,
                    "sub_hops": result.sub_hops.mean,
                    "pub_hops": result.pub_hops.mean,
                    "notify_hops": result.notify_hops.mean,
                    "keys_per_sub": result.keys_per_subscription,
                    "keys_per_pub": result.keys_per_publication,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 6: memory consumption vs subscription expiration time
# ---------------------------------------------------------------------------

def figure6(
    subscriptions: int = 3000,
    nodes: int = 500,
    seed: int = 42,
    expiration_fractions: Sequence[float | None] = (0.1, 0.2, 0.4, 0.8, None),
    selective_counts: Sequence[int] = (0, 1),
) -> list[dict]:
    """Fig. 6: max subscriptions per node vs expiration time.

    25 000 subscriptions (scaled here), no publications.  Expirations
    are expressed as fractions of the total injection window (None =
    never expire).  Expected shape: storage grows with expiration time;
    Mapping 2 stores least with no selective attribute; Mapping 3
    benefits strongly from one selective attribute.
    """
    rows = []
    injection_window = subscriptions * WorkloadSpec().subscription_period
    for selective in selective_counts:
        for fraction in expiration_fractions:
            ttl = None if fraction is None else fraction * injection_window
            workload = WorkloadSpec(
                selective_attributes=_selective_tuple(selective),
                subscription_ttl=ttl,
            )
            for mapping in MAPPINGS:
                result = run_experiment(
                    ExperimentConfig(
                        mapping=mapping,
                        routing=RoutingMode.MCAST,
                        nodes=nodes,
                        seed=seed,
                        subscriptions=subscriptions,
                        publications=0,
                        workload=workload,
                    )
                )
                rows.append(
                    {
                        "selective_attributes": selective,
                        "expiration": ttl,
                        "mapping": mapping,
                        "max_subs_per_node": result.max_subscriptions_per_node,
                        "mean_subs_per_node": result.mean_subscriptions_per_node,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 7: hops per publication vs number of nodes
# ---------------------------------------------------------------------------

def figure7(
    node_counts: Sequence[int] = (50, 100, 200, 500, 1000, 2000, 4000),
    publications: int = 300,
    seed: int = 42,
    cache_capacity: int = 128,
) -> list[dict]:
    """Fig. 7: hops per publication vs n (Mapping 3, unicast).

    Expected shape: logarithmic growth with n, inherited from the
    overlay's routing.  The ``log2(n)`` column is included as the
    reference curve.
    """
    rows = []
    workload = WorkloadSpec(subscription_ttl=None)
    for nodes in node_counts:
        result = run_experiment(
            ExperimentConfig(
                mapping="selective-attribute",
                routing=RoutingMode.UNICAST,
                nodes=nodes,
                seed=seed,
                cache_capacity=cache_capacity,
                subscriptions=50,
                publications=publications,
                workload=workload,
            )
        )
        rows.append(
            {
                "nodes": nodes,
                "pub_hops": result.pub_hops.mean,
                "log2_n": math.log2(nodes),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8: memory consumption vs number of nodes
# ---------------------------------------------------------------------------

def figure8(
    node_counts: Sequence[int] = (100, 250, 500, 1000, 2000, 4000),
    subscriptions: int = 3000,
    seed: int = 42,
    selective_counts: Sequence[int] = (0, 1),
) -> list[dict]:
    """Fig. 8: max subscriptions per node vs n, 25 000 subs (scaled).

    Expected shape: total stored copies grow with n for Mappings 1 and
    3 (a fixed key range is split across more rendezvous nodes) while
    Mapping 2's storage per node stays nearly flat; with one selective
    attribute Mapping 3 beats Mapping 2 up to a crossover (paper:
    n ≈ 2500).
    """
    rows = []
    for selective in selective_counts:
        workload = WorkloadSpec(
            selective_attributes=_selective_tuple(selective),
            subscription_ttl=None,
        )
        for nodes in node_counts:
            for mapping in MAPPINGS:
                result = run_experiment(
                    ExperimentConfig(
                        mapping=mapping,
                        routing=RoutingMode.MCAST,
                        nodes=nodes,
                        seed=seed,
                        subscriptions=subscriptions,
                        publications=0,
                        workload=workload,
                    )
                )
                rows.append(
                    {
                        "selective_attributes": selective,
                        "nodes": nodes,
                        "mapping": mapping,
                        "max_subs_per_node": result.max_subscriptions_per_node,
                        "mean_subs_per_node": result.mean_subscriptions_per_node,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 9(a): notification buffering and collecting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BufferingVariant:
    """One histogram group of Fig. 9(a)."""

    label: str
    buffering: bool
    collecting: bool
    period_multiplier: float  # x the average publication period


FIGURE9A_VARIANTS = (
    BufferingVariant("no buffering, no collecting", False, False, 1.0),
    BufferingVariant("buffering + collecting (1x)", True, True, 1.0),
    BufferingVariant("buffering + collecting (2x)", True, True, 2.0),
    BufferingVariant("buffering + collecting (5x)", True, True, 5.0),
    BufferingVariant("buffering only (1x)", True, False, 1.0),
)


def figure9a(
    matching_probabilities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    subscriptions: int = 400,
    publications: int = 800,
    nodes: int = 500,
    seed: int = 42,
    variants: Sequence[BufferingVariant] = FIGURE9A_VARIANTS,
    temporal_locality: float = 0.85,
) -> list[dict]:
    """Fig. 9(a): notification hops per publication vs matching probability.

    The workload uses the temporally-local event streams that Section
    4.3.2 motivates buffering with (stock tickers, sensors): consecutive
    publications perturb the previous one, so the same subscriptions
    match repeatedly and batches actually fill.  The location cache is
    disabled so notification routing costs its textbook hops and the
    optimization effect is isolated.  Expected shape: buffering and
    collecting both cut notification traffic; longer buffering periods
    cut more, at the price of delivery delay only.
    """
    rows = []
    for probability in matching_probabilities:
        for variant in variants:
            workload = WorkloadSpec(
                matching_probability=probability,
                subscription_ttl=None,
                temporal_locality=temporal_locality,
                locality_jitter_fraction=0.0005,
            )
            period = variant.period_multiplier * workload.publication_mean_period
            result = run_experiment(
                ExperimentConfig(
                    mapping="selective-attribute",
                    routing=RoutingMode.MCAST,
                    nodes=nodes,
                    cache_capacity=0,
                    seed=seed,
                    subscriptions=subscriptions,
                    publications=publications,
                    workload=workload,
                    buffering=variant.buffering,
                    collecting=variant.collecting,
                    buffer_period=period,
                )
            )
            rows.append(
                {
                    "matching_probability": probability,
                    "variant": variant.label,
                    "notify_hops_per_pub": result.notification_hops_per_publication,
                    "notification_batches": result.recorder.notification_batches,
                    "matched_notifications": result.recorder.matched_notifications,
                    "mean_delay": result.notification_delay.mean,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 9(b): discretization of mappings
# ---------------------------------------------------------------------------

def figure9b(
    width_fractions: Sequence[float] = (0.0, 0.1, 0.2),
    subscriptions: int = 300,
    nodes: int = 500,
    seed: int = 42,
) -> list[dict]:
    """Fig. 9(b): subscription hops vs discretization interval.

    Intervals sized at 0 (no discretization), 10% and 20% of the
    average range size; Mapping 3, unicast (per the paper; the same
    trend applies to the other mappings with multicast).  Expected
    shape: coarser discretization monotonically reduces subscription
    propagation cost.
    """
    rows = []
    workload = WorkloadSpec(subscription_ttl=None)
    average_range = workload.average_range(0)
    for fraction in width_fractions:
        width = max(1, int(average_range * fraction)) if fraction else 1
        result = run_experiment(
            ExperimentConfig(
                mapping="selective-attribute",
                routing=RoutingMode.UNICAST,
                nodes=nodes,
                seed=seed,
                subscriptions=subscriptions,
                publications=0,
                workload=workload,
                discretization_width=width,
            )
        )
        rows.append(
            {
                "interval_fraction": fraction,
                "interval_width": width,
                "sub_hops": result.sub_hops.mean,
                "keys_per_sub": result.keys_per_subscription,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Section 5.1 text: baseline unicast routing cost (finger caching)
# ---------------------------------------------------------------------------

def baseline_routing(
    nodes: int = 500,
    publications: int = 500,
    seed: int = 42,
    cache_capacities: Sequence[int] = (0, 32, 128),
) -> list[dict]:
    """The ~2.5 average unicast hops at n=500 credited to finger caching.

    Sweeps the location-cache capacity: capacity 0 reproduces textbook
    Chord (~0.5 log2 n), larger caches approach the paper's 2.5.
    """
    rows = []
    workload = WorkloadSpec(subscription_ttl=None)
    for capacity in cache_capacities:
        result = run_experiment(
            ExperimentConfig(
                mapping="attribute-split",  # EK is a single key: pure unicast
                routing=RoutingMode.UNICAST,
                nodes=nodes,
                seed=seed,
                cache_capacity=capacity,
                subscriptions=30,
                publications=publications,
                workload=workload,
            )
        )
        rows.append(
            {
                "cache_capacity": capacity,
                "pub_hops": result.pub_hops.mean,
                "half_log2_n": 0.5 * math.log2(nodes),
            }
        )
    return rows
