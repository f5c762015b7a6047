"""Experiment configuration.

Defaults follow Section 5.1: key space 2^13, n = 500 nodes, 50 ms hop
delay, subscriptions every 5 s, Poisson publications (mean 5 s),
matching probability 0.5, 4 non-selective attributes.
"""

from __future__ import annotations

import dataclasses

from repro.core.mappings import AKMapping, Discretization, make_mapping
from repro.core import PubSubConfig
from repro.errors import ConfigurationError
from repro.overlay.api import OverlayNetwork
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim.kernel import Simulator
from repro.workload.spec import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one simulation run; the pub/sub layer's live in ``pubsub``.

    Attributes:
        mapping: ``"attribute-split"`` / ``"keyspace-split"`` /
            ``"selective-attribute"``.
        overlay: Routing substrate (``"chord"`` / ``"pastry"`` /
            ``"can"``); all three implement the same overlay contract.
        nodes: Ring size n.
        key_bits: m; the paper's key space is 2^13.
        message_delay: One-hop latency in seconds.
        cache_capacity: Per-node location-cache size (the "finger
            caching" that yields ~2.5 unicast hops at n=500); 0 = off.
            Chord and CAN honour it, Pastry has no location cache.
        seed: Root seed; every random stream derives from it.
        subscriptions: Number of subscriptions to inject.
        publications: Number of publications to inject.
        workload: Section 5.1 workload parameters (its TTL is stamped on
            every generated subscription).
        discretization_width: Section 4.3.3 interval width in attribute
            value units (1 = no discretization), applied uniformly.
        pubsub: The pub/sub layer's switches, handed to
            :class:`~repro.core.system.PubSubSystem` as is.
    """

    mapping: str = "selective-attribute"
    overlay: str = "chord"
    nodes: int = 500
    key_bits: int = 13
    message_delay: float = 0.05
    cache_capacity: int = 128
    seed: int = 42
    subscriptions: int = 500
    publications: int = 500
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    discretization_width: int = 1
    pubsub: PubSubConfig = dataclasses.field(default_factory=PubSubConfig)

    def __post_init__(self) -> None:
        if self.overlay not in ("chord", "pastry", "can"):
            raise ConfigurationError(
                f"unknown overlay {self.overlay!r} "
                "(choose chord, pastry or can)"
            )
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.subscriptions < 0 or self.publications < 0:
            raise ConfigurationError(
                "subscriptions and publications must be >= 0, got "
                f"{self.subscriptions} and {self.publications}"
            )
        if self.nodes > (1 << self.key_bits):
            raise ConfigurationError(
                f"{self.nodes} nodes do not fit a {self.key_bits}-bit key space"
            )
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0 (0 = off), got {self.cache_capacity}"
            )
        if self.discretization_width < 1:
            raise ConfigurationError("discretization_width must be >= 1")
        # Section 4.3.3's sizing rule: the total number of possible
        # intervals of the (d-dimensional) event space — its total size
        # divided by the interval size — should stay above the number
        # of nodes, or some nodes can never be rendezvous and load
        # imbalance follows.
        per_attribute = max(1, self.workload.domain_size // self.discretization_width)
        total_intervals = 1
        for _ in range(self.workload.dimensions):
            total_intervals *= per_attribute
            if total_intervals >= self.nodes:
                break
        if total_intervals < self.nodes:
            raise ConfigurationError(
                f"discretization width {self.discretization_width} leaves only "
                f"{total_intervals} event-space intervals for {self.nodes} "
                "nodes (Section 4.3.3 sizing rule)"
            )

    def build_overlay(self, sim: Simulator, network: Network) -> OverlayNetwork:
        """The configured overlay over ``network``, its ring not yet built.

        The one overlay recipe: the serial runner and every shard worker
        call it, so their routing state cannot drift apart.
        """
        keyspace = KeySpace(self.key_bits)
        if self.overlay == "pastry":
            return PastryOverlay(sim, keyspace, network=network)
        cached = CanOverlay if self.overlay == "can" else ChordOverlay
        return cached(
            sim, keyspace, network=network, cache_capacity=self.cache_capacity
        )

    def build_mapping(self) -> AKMapping:
        """The configured ak-mapping (stateless, so every copy agrees on keys)."""
        space = self.workload.make_space()
        return make_mapping(
            self.mapping,
            space,
            KeySpace(self.key_bits),
            discretization=Discretization.uniform(
                space.dimensions, self.discretization_width
            ),
        )
