"""Message and storage counters.

A send is counted by ``Network.transmit`` and a delivery by
``OverlayNetwork.do_deliver``, inline into the recorder's dicts, so the
counting tests drive those two.
"""

from types import SimpleNamespace

from repro.metrics.counters import MessageStats, StorageStats
from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator

SUB = MessageKind.SUBSCRIPTION
PUB = MessageKind.PUBLICATION


def message(kind, request_id, hops=0):
    return OverlayMessage(
        kind=kind, payload=None, request_id=request_id, origin=0, hops=hops
    )


def deliver_at(deliveries) -> MessageStats:
    """Run ``(time, node_id, message)`` deliveries through ``do_deliver``."""
    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(13))
    for time, node_id, sent in deliveries:
        sim.schedule_at(time, overlay.do_deliver, SimpleNamespace(id=node_id), sent)
    sim.run()
    return overlay.recorder.messages


def test_begin_and_record_sends():
    network = Network(Simulator())
    stats = network.recorder.messages
    stats.begin_request(SUB, 1, time=0.0)
    network.transmit(0, 1, message(SUB, 1))
    network.transmit(1, 2, message(SUB, 1))
    stats.begin_request(SUB, 2, time=0.0)
    network.transmit(0, 1, message(SUB, 2))
    assert stats.total_sends(SUB) == 3
    assert stats.total_sends() == 3
    assert stats.hops_per_request(SUB) == [2, 1]
    assert stats.mean_hops_per_request(SUB) == 1.5


def test_zero_hop_requests_counted():
    """A request whose only delivery is local costs zero messages but
    must still appear in the per-request means (Fig. 5 averages)."""
    stats = MessageStats()
    stats.begin_request(PUB, 5, time=0.0)
    assert stats.hops_per_request(PUB) == [0]
    assert stats.mean_hops_per_request(PUB) == 0.0


def test_send_without_begin_creates_trace():
    network = Network(Simulator())
    network.transmit(0, 1, message(PUB, 9))
    stats = network.recorder.messages
    assert stats.traces[9].kind is PUB
    assert stats.traces[9].one_hop_messages == 1


def test_deliveries_and_dilation():
    first, second = message(SUB, 1, hops=3), message(SUB, 1, hops=5)
    stats = deliver_at([(0.5, 10, first), (0.7, 20, second)])
    trace = stats.traces[1]
    assert trace.delivery_count == 2
    assert trace.max_path_hops == 5
    assert trace.last_delivery_time == 0.7
    assert stats.mean_dilation(SUB) == 5.0


def test_delivery_for_unknown_request_ignored():
    # The id is historical: such a delivery used to be dropped, which
    # lost every delivery on a shard that had not yet sent for the
    # request (the "K-shard != serial" gap).  It opens the trace, with
    # the kind the message carries, exactly as a first send does.
    stats = deliver_at([(0.25, 1, message(PUB, 99, hops=1))])
    trace = stats.traces[99]
    assert trace.kind is PUB
    assert trace.start_time == 0.25
    assert trace.deliveries == [(1, 0.25)]
    assert trace.one_hop_messages == 0
    assert trace.max_path_hops == 1
    # Merged into the partial of the shard that began the request, the
    # earliest start wins and the deliveries concatenate.
    network = Network(Simulator())
    origin = network.recorder.messages
    origin.begin_request(PUB, 99, time=0.0)
    network.transmit(0, 1, message(PUB, 99))
    origin.merge_from(stats)
    merged = origin.traces[99]
    assert merged.start_time == 0.0
    assert merged.one_hop_messages == 1
    assert merged.deliveries == [(1, 0.25)]


def test_empty_means_are_zero():
    stats = MessageStats()
    assert stats.mean_hops_per_request(SUB) == 0.0
    assert stats.mean_dilation(SUB) == 0.0


def test_storage_snapshots():
    storage = StorageStats()
    assert storage.latest() == {}
    assert storage.max_per_node() == 0
    storage.snapshot(1.0, {10: 3, 20: 7})
    storage.snapshot(2.0, {10: 5, 20: 2})
    assert storage.max_per_node() == 5
    assert storage.mean_per_node() == 3.5
    assert storage.peak_max_per_node() == 7
    assert len(storage.snapshots) == 2


def test_notification_delay_recording():
    from repro.metrics.recorder import MetricsRecorder

    recorder = MetricsRecorder()
    assert recorder.notification_delay_summary().count == 0
    recorder.on_notify(7, (SimpleNamespace(published_at=1.5),), 2.0)
    recorder.on_notify(7, (SimpleNamespace(published_at=0.5),), 2.0)
    summary = recorder.notification_delay_summary()
    assert summary.count == 2
    assert summary.mean == 1.0
    assert summary.minimum == 0.5 and summary.maximum == 1.5


def test_notification_batch_accounting():
    from repro.metrics.recorder import MetricsRecorder

    recorder = MetricsRecorder()
    notification = SimpleNamespace(published_at=0.0)
    recorder.on_notify(7, (notification,) * 3, 1.0)
    recorder.on_notify(8, (notification,), 1.0)
    assert recorder.notification_batches == 2
    assert recorder.matched_notifications == 4
