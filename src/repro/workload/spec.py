"""Workload parameters (the knobs of Section 5.1)."""

from __future__ import annotations

import dataclasses

from repro.core.events import EventSpace
from repro.errors import ConfigurationError

#: The paper's maximum attribute value (values span [0, ATTR_MAX]).
DEFAULT_ATTR_MAX = 1_000_000


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the synthetic workload.

    Attributes:
        dimensions: Number of event-space attributes (paper: 4).
        attr_max: Maximum attribute value ATTR_MAX (paper: 1,000,000).
        selective_attributes: Indices of the attributes categorized as
            selective for this experiment (paper sweeps 0 or 1).
        nonselective_range_fraction: X/ATTR_MAX for non-selective
            attributes; each constraint spans uniform [1, X] (paper: 3%).
        selective_range_fraction: Same for selective attributes
            (paper: 0.1%).
        zipf_exponent: Skew of the Zipf distribution of selective range
            centers.  The paper does not state its value; 0.8 is chosen
            so that the skew is material (hot values exist) without a
            single value dominating — consistent with the paper's
            observation that one selective attribute *reduces* Mapping
            3's per-node storage (Figs. 6, 8).
        subscription_period: Seconds between subscription injections
            (regular rate, paper: 5 s).
        publication_mean_period: Mean of the exponential inter-arrival
            of publications (Poisson process, paper: 5 s).
        matching_probability: Probability that a generated publication
            matches at least one live subscription (paper: 0.5).
        subscription_ttl: Expiration of stored subscriptions in seconds,
            or None for never (simulates unsubscriptions, Fig. 6).
        constraint_probability: Probability that a *non-selective*
            attribute is constrained at all; below 1 the generator
            emits the paper's partially defined subscriptions
            (Section 4.2) — a subscriber states its interest on the
            attributes it cares about and leaves the rest open, the
            flash-crowd "watch the ticker" shape.  Selective
            attributes are always constrained (they key the AK
            mapping).  1.0 (the default, every attribute constrained)
            draws the exact same random stream as before the knob
            existed.
        temporal_locality: Probability that a publication is a small
            perturbation of the previous one rather than a fresh draw.
            Section 4.3.2 motivates notification buffering with event
            streams whose "consecutive events exhibit temporal locality,
            i.e., have close attribute values" (stock tickers, sensors);
            the Fig. 9(a) harness turns this on.  0 disables it.
        locality_jitter_fraction: Half-width of the perturbation as a
            fraction of ATTR_MAX when a local event is drawn.
    """

    dimensions: int = 4
    attr_max: int = DEFAULT_ATTR_MAX
    selective_attributes: tuple[int, ...] = ()
    nonselective_range_fraction: float = 0.03
    selective_range_fraction: float = 0.001
    zipf_exponent: float = 0.8
    subscription_period: float = 5.0
    publication_mean_period: float = 5.0
    matching_probability: float = 0.5
    subscription_ttl: float | None = None
    constraint_probability: float = 1.0
    temporal_locality: float = 0.0
    locality_jitter_fraction: float = 0.002

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ConfigurationError("dimensions must be >= 1")
        if self.attr_max < 1:
            raise ConfigurationError("attr_max must be >= 1")
        for index in self.selective_attributes:
            if not 0 <= index < self.dimensions:
                raise ConfigurationError(
                    f"selective attribute {index} outside the "
                    f"{self.dimensions}-dimensional space"
                )
        for fraction in (
            self.nonselective_range_fraction,
            self.selective_range_fraction,
        ):
            if not 0 < fraction <= 1:
                raise ConfigurationError(
                    f"range fraction {fraction} outside (0, 1]"
                )
        if not 0 <= self.matching_probability <= 1:
            raise ConfigurationError("matching_probability outside [0, 1]")
        if not 0 <= self.constraint_probability <= 1:
            raise ConfigurationError("constraint_probability outside [0, 1]")
        if self.constraint_probability == 0 and len(
            self.selective_attributes
        ) == 0:
            raise ConfigurationError(
                "constraint_probability 0 with no selective attributes "
                "would generate empty subscriptions"
            )
        if not 0 <= self.temporal_locality <= 1:
            raise ConfigurationError("temporal_locality outside [0, 1]")
        if not 0 < self.locality_jitter_fraction <= 1:
            raise ConfigurationError("locality_jitter_fraction outside (0, 1]")
        if self.subscription_period <= 0 or self.publication_mean_period <= 0:
            raise ConfigurationError("injection periods must be positive")
        if self.subscription_ttl is not None and not self.subscription_ttl > 0:
            raise ConfigurationError(
                f"subscription_ttl must be > 0 or None, got {self.subscription_ttl}"
            )

    @property
    def domain_size(self) -> int:
        """|Ωᵢ| = attr_max + 1 (values are 0..attr_max inclusive)."""
        return self.attr_max + 1

    def make_space(self) -> EventSpace:
        """The event space this workload ranges over."""
        names = tuple(f"a{i + 1}" for i in range(self.dimensions))
        return EventSpace.uniform(names, self.domain_size)

    def is_selective(self, attribute: int) -> bool:
        """True if the attribute is categorized selective."""
        return attribute in self.selective_attributes

    def max_range(self, attribute: int) -> int:
        """X: the largest constraint span for this attribute."""
        fraction = (
            self.selective_range_fraction
            if self.is_selective(attribute)
            else self.nonselective_range_fraction
        )
        return max(1, int(self.attr_max * fraction))

    def average_range(self, attribute: int) -> float:
        """Expected constraint span (ranges are uniform in [1, X])."""
        return (1 + self.max_range(attribute)) / 2


@dataclasses.dataclass(frozen=True)
class ChurnSpec:
    """Churn intensities, as mean seconds between Poisson events (0 =
    off): Section 4.1's "adaptive to node failures and joins", measurable.

    Attributes:
        join_period: Mean time between node joins.
        leave_period: Mean time between graceful departures.
        crash_period: Mean time between crashes.
        min_ring_size: Departures are suppressed at this population.
    """

    join_period: float = 0.0
    leave_period: float = 0.0
    crash_period: float = 0.0
    min_ring_size: int = 8

    def __post_init__(self) -> None:
        for period in (self.join_period, self.leave_period, self.crash_period):
            if period < 0:
                raise ConfigurationError("churn periods must be >= 0")
        if self.min_ring_size < 2:
            raise ConfigurationError("min_ring_size must be >= 2")
