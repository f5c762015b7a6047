"""Named metric instruments: counters, gauges, histograms.

Any component can create an instrument through the run's
:class:`MetricRegistry` (``registry.counter("network.dropped")``)
and update it with plain attribute arithmetic — an update is one
``int`` add on a ``__slots__`` object, cheap enough to leave permanently
on (the network's ``dropped`` counter runs on every dead-destination
drop).

Instruments may carry **labels** (``counter("audit.violations",
vtype="notification-missed")``) so labelled series coexist with
aggregation: :meth:`MetricRegistry.total` sums a name across label
sets, and :meth:`MetricRegistry.snapshot` — the time-series sampling
hook — aggregates labeled counters under their bare name to keep
periodic samples compact.

The process-global default telemetry uses :class:`NullRegistry`, which
hands out fully functional but *unregistered* instruments: components
built outside an experiment (unit tests, ad-hoc scripts) still count,
but nothing accumulates in shared process state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.metrics.stats import Summary, summarize

#: Canonical key for one instrument: name plus sorted label items.
MetricKey = tuple[str, tuple[tuple[str, object], ...]]


def metric_key(name: str, labels: Mapping[str, object]) -> MetricKey:
    return name, tuple(sorted(labels.items()))


def format_metric(name: str, labels: tuple[tuple[str, object], ...]) -> str:
    """Human-readable instrument id: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({format_metric(self.name, self.labels)}={self.value})"


class Gauge:
    """A point-in-time value, either set explicitly or lazily supplied.

    A ``supplier`` gauge costs nothing until sampled: the callable is
    only invoked by :meth:`MetricRegistry.snapshot`, which is how the
    sim kernel exposes ``sim.pending`` / ``sim.events_processed``
    without touching its hot loops.
    """

    __slots__ = ("name", "labels", "_value", "supplier")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, object], ...] = (),
        supplier: Callable[[], float] | None = None,
    ):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.supplier = supplier

    def set(self, value: float) -> None:
        self._value = value

    def read(self) -> float:
        if self.supplier is not None:
            return self.supplier()
        return self._value


class Histogram:
    """A bag of observations summarized on demand (five-number style)."""

    __slots__ = ("name", "labels", "_values")

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...] = ()):
        self.name = name
        self.labels = labels
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> list[float]:
        return list(self._values)

    def summary(self) -> Summary:
        return summarize(self._values)


class MetricRegistry:
    """Creates, indexes and samples the instruments of one run.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same (name, labels) returns the same object, so components
    can share instruments by name without threading references around.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- instrument creation ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, key[1])
            self._counters[key] = instrument
        return instrument

    def gauge(
        self,
        name: str,
        supplier: Callable[[], float] | None = None,
        **labels: object,
    ) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1], supplier=supplier)
            self._gauges[key] = instrument
        elif supplier is not None:
            instrument.supplier = supplier
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1])
            self._histograms[key] = instrument
        return instrument

    # -- read side ----------------------------------------------------------

    def counters(self) -> Iterable[Counter]:
        return self._counters.values()

    def gauges(self) -> Iterable[Gauge]:
        return self._gauges.values()

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()

    def total(self, name: str) -> int:
        """Sum of a counter name across all its label sets."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def snapshot(self) -> dict[str, float]:
        """One time-series sample: counters summed by bare name, gauges read.

        Labeled counters aggregate under their name (labelled series
        stay queryable through the instruments themselves); histograms
        contribute their observation count as ``<name>.count``.
        """
        sample: dict[str, float] = {}
        for (name, _), counter in self._counters.items():
            sample[name] = sample.get(name, 0) + counter.value
        for (name, labels), gauge in self._gauges.items():
            sample[format_metric(name, labels)] = gauge.read()
        for (name, _), histogram in self._histograms.items():
            key = f"{name}.count"
            sample[key] = sample.get(key, 0) + histogram.count
        return sample


class NullRegistry(MetricRegistry):
    """Hands out working but unregistered instruments.

    The process-global default telemetry must not accumulate state
    across unrelated runs (a pytest session constructs thousands of
    networks), so instruments created here are *not* indexed: the
    caller holds the only reference, counting still works, and
    ``snapshot``/``total`` see nothing.
    """

    def counter(self, name: str, **labels: object) -> Counter:
        return Counter(name, metric_key(name, labels)[1])

    def gauge(
        self,
        name: str,
        supplier: Callable[[], float] | None = None,
        **labels: object,
    ) -> Gauge:
        return Gauge(name, metric_key(name, labels)[1], supplier=supplier)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return Histogram(name, metric_key(name, labels)[1])
