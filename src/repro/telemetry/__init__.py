"""Unified observability layer: metrics, causal tracing, exporters.

One :class:`Telemetry` bundles the three sinks of a run:

- a :class:`~repro.telemetry.registry.MetricRegistry` of named
  counters / gauges / histograms any component can create;
- a :class:`~repro.telemetry.tracing.Tracer` recording one span per
  one-hop transmission (causal parent ids reconstruct m-cast trees);
- a list of periodic time-series ``samples`` taken on the *simulated*
  clock, so exported metrics carry sim-time axes.

**Disabled by default, free when disabled.**  A network that is not
handed a telemetry explicitly falls back to :data:`NULL_TELEMETRY`,
the one module-level *null* bundle: ``enabled`` is False and the
registry hands out unregistered (but still counting) instruments.
Observation goes through the run's observer tap
(:mod:`repro.telemetry.tap`): an enabled bundle subscribes its tracer
and load meter to the network's tap, a disabled one subscribes nothing,
and no layer holds a reference to either — so a telemetry-disabled run
executes empty loops, and its behavior fingerprint is the
pre-telemetry one bit for bit (enforced in tier-1 by
``tests/integration/test_behavior_pins.py``).

Enable by constructing ``Telemetry()`` and passing it down the stack
(``run_experiment(config, telemetry=...)`` / ``Network(...,
telemetry=...)``).  Export with :mod:`repro.telemetry.export`; read
the file back with ``repro report`` (:mod:`repro.telemetry.reader`).
"""

from __future__ import annotations

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from repro.telemetry.tap import Tap
from repro.telemetry.tracing import NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_TELEMETRY",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tap",
    "Telemetry",
    "Tracer",
]


class Telemetry:
    """The per-run observability bundle (registry + tracer + samples)."""

    def __init__(
        self,
        enabled: bool = True,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        load_metering: bool = True,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else (
            Tracer() if enabled else NullTracer()
        )
        #: Periodic ``(sim_time, {metric: value})`` samples.
        self.samples: list[tuple[float, dict[str, float]]] = []
        #: The attached :class:`~repro.audit.auditor.Auditor`, if the
        #: run is audited (set by the auditor's constructor); its
        #: violations and probe records ride along in the JSONL export.
        self.audit = None
        #: Per-node / per-key load attribution (see
        #: :mod:`repro.telemetry.load`); None when the bundle is
        #: disabled or load metering is opted out.
        self.load = None
        if enabled and load_metering:
            from repro.telemetry.load import LoadMeter

            self.load = LoadMeter()

    def attach_to(self, tap: Tap) -> None:
        """Subscribe this bundle's observers to a network's tap.

        A disabled bundle subscribes nothing, and a :class:`NullTracer`
        has no event to subscribe to.
        """
        if not self.enabled:
            return
        tap.attach(self.tracer)
        if self.load is not None:
            tap.attach(self.load)
        self._matches = self.registry.histogram(
            "pubsub.matches_per_publication_delivery"
        )
        tap.attach(self)

    def on_match(self, node, message, matched) -> None:
        self._matches.observe(len(matched))

    def sample(self, now: float) -> None:
        """Take one time-series sample of the registry at sim-time ``now``."""
        if not self.enabled:
            return
        self.samples.append((now, self.registry.snapshot()))
        if self.load is not None:
            self.load.sample(now)


#: The disabled default of every network built without a telemetry:
#: unregistered instruments, no tracer.  Never accumulates state, so
#: sharing it across all of them is safe.
NULL_TELEMETRY = Telemetry(
    enabled=False, registry=NullRegistry(), tracer=NullTracer()
)
