"""Edge cases of the run-level recorder aggregates.

``notification_delay_summary`` and the ``StorageStats`` peak views are
read by every figure harness at the end of a run; these tests pin their
behavior for the degenerate runs (no notifications, no snapshots,
snapshots with no live nodes) where a naive max()/mean() would raise.
"""

from types import SimpleNamespace

from repro.metrics.counters import StorageStats
from repro.metrics.recorder import MetricsRecorder


def test_notification_delay_summary_empty():
    recorder = MetricsRecorder()
    summary = recorder.notification_delay_summary()
    assert summary.count == 0
    assert summary.mean == 0.0
    assert summary.maximum == 0.0


def test_notification_delay_summary_values():
    recorder = MetricsRecorder()
    for delay in (0.1, 0.3, 0.2):
        recorder.on_notify(1, (SimpleNamespace(published_at=-delay),), 0.0)
    summary = recorder.notification_delay_summary()
    assert summary.count == 3
    assert abs(summary.mean - 0.2) < 1e-12
    assert summary.minimum == 0.1
    assert summary.maximum == 0.3


def test_storage_peaks_with_no_snapshots():
    storage = StorageStats()
    assert storage.peak_max_per_node() == 0
    assert storage.peak_mean_per_node() == 0.0
    assert storage.latest() == {}
    assert storage.max_per_node() == 0
    assert storage.mean_per_node() == 0.0


def test_storage_peaks_with_all_empty_counts():
    storage = StorageStats()
    storage.snapshot(1.0, {})
    storage.snapshot(2.0, {})
    assert storage.peak_max_per_node() == 0
    assert storage.peak_mean_per_node() == 0.0


def test_storage_peaks_track_maximum_across_snapshots():
    storage = StorageStats()
    storage.snapshot(1.0, {1: 4, 2: 2})  # mean 3.0, max 4
    storage.snapshot(2.0, {1: 1, 2: 1})  # decayed (e.g. TTL expiry)
    storage.snapshot(3.0, {})  # everyone gone
    assert storage.peak_max_per_node() == 4
    assert storage.peak_mean_per_node() == 3.0
    # latest() reflects the final (empty) state, not the peak.
    assert storage.max_per_node() == 0


def test_storage_peak_mean_ignores_empty_snapshots_in_denominator():
    storage = StorageStats()
    storage.snapshot(1.0, {})
    storage.snapshot(2.0, {1: 2})
    assert storage.peak_mean_per_node() == 2.0
