"""Unit tests for the metric registry and its instruments."""

from repro.overlay.network import Network
from repro.sim import Simulator
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.registry import (
    MetricRegistry,
    NullRegistry,
    format_metric,
    metric_key,
)


def test_counter_get_or_create_and_inc():
    registry = MetricRegistry()
    a = registry.counter("network.dropped")
    b = registry.counter("network.dropped")
    assert a is b
    a.inc()
    a.inc(3)
    assert b.value == 4


def test_labeled_counters_are_distinct_instruments():
    registry = MetricRegistry()
    n1 = registry.counter("chord.table_rebuilds", node=1)
    n2 = registry.counter("chord.table_rebuilds", node=2)
    assert n1 is not n2
    n1.inc(2)
    n2.inc(5)
    assert registry.total("chord.table_rebuilds") == 7


def test_gauge_explicit_and_supplier():
    registry = MetricRegistry()
    g = registry.gauge("depth")
    assert g.read() == 0.0
    g.set(3.5)
    assert g.read() == 3.5
    backing = [7.0]
    lazy = registry.gauge("lazy", supplier=lambda: backing[0])
    assert lazy.read() == 7.0
    backing[0] = 9.0
    assert lazy.read() == 9.0


def test_histogram_summary():
    registry = MetricRegistry()
    h = registry.histogram("delays")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    summary = h.summary()
    assert summary.count == 3
    assert summary.mean == 2.0
    assert h.count == 3
    assert h.values() == [1.0, 2.0, 3.0]


def test_snapshot_aggregates_labels_under_bare_name():
    registry = MetricRegistry()
    registry.counter("chord.table_rebuilds", node=1).inc(2)
    registry.counter("chord.table_rebuilds", node=2).inc(3)
    registry.gauge("sim.pending", supplier=lambda: 11.0)
    registry.histogram("matches").observe(1.0)
    sample = registry.snapshot()
    assert sample["chord.table_rebuilds"] == 5
    assert sample["sim.pending"] == 11.0
    assert sample["matches.count"] == 1


def test_metric_key_and_format():
    assert metric_key("x", {"b": 2, "a": 1}) == ("x", (("a", 1), ("b", 2)))
    assert format_metric("x", ()) == "x"
    assert format_metric("x", (("node", 7),)) == "x{node=7}"


def test_null_registry_hands_out_unregistered_instruments():
    registry = NullRegistry()
    c = registry.counter("n.dropped")
    c.inc(5)
    assert c.value == 5  # still counts for property views
    assert registry.total("n.dropped") == 0  # but nothing is indexed
    assert registry.snapshot() == {}
    assert registry.counter("n.dropped") is not c  # no shared state


def test_current_defaults_to_disabled_null_telemetry():
    # A network built without a telemetry gets the one null bundle.
    network = Network(Simulator())
    assert network.telemetry is NULL_TELEMETRY
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.sample(1.0)
    assert NULL_TELEMETRY.samples == []
