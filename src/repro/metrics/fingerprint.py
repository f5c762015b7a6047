"""Canonical behavior fingerprints over a run's recorded metrics.

Simulated outcomes have been pinned since PR 1 by hashing a
canonicalized view of the metrics recorder; the sharded kernel states
its determinism contract in the *same* digest ("K shards are
bit-for-bit the serial kernel, for any K"), and so does the performance
ledger, so the canonicalization lives here and all of them import it.
The canonical form is frozen — changing it silently invalidates every
record pinned in ``tests/integration/behavior_pins.json``.

Everything in the digest is invariant under intra-timestamp event
reordering (multisets, not sequences) but pins delivery counts, hop
counts and notification delays bit-for-bit.  That order-invariance is
what makes the digest shard-stable: the coordinator merges per-shard
recorder partials in (shard id, request id) order, and the canonical
form sorts them anyway.
"""

from __future__ import annotations

import hashlib
import json

from repro.metrics.recorder import MetricsRecorder


def canonical_metrics(recorder: MetricsRecorder) -> dict:
    """The canonicalized simulated-outcome view of one recorder.

    Keys and value shapes are part of the frozen fingerprint contract
    (see module docstring); floats are carried as ``repr`` strings so
    the digest is exact, not round-trip-approximate.
    """
    stats = recorder.messages
    sends_by_kind = {
        kind.name: stats.total_sends(kind)
        for kind in sorted(
            {trace.kind for trace in stats.traces.values()}, key=lambda k: k.name
        )
    }
    traces = sorted(
        (
            trace.kind.name,
            trace.one_hop_messages,
            trace.max_path_hops,
            sorted((node, repr(when)) for node, when in trace.deliveries),
        )
        for trace in stats.traces.values()
    )
    delays = sorted(repr(d) for d in recorder._notification_delays)
    return {
        "sends_by_kind": sends_by_kind,
        "traces": traces,
        "delays": delays,
        "matched_notifications": recorder.matched_notifications,
        "notification_batches": recorder.notification_batches,
    }


def behavior_digest(recorder: MetricsRecorder) -> str:
    """SHA-256 over :func:`canonical_metrics` in canonical JSON form."""
    canonical = json.dumps(
        canonical_metrics(recorder), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def behavior_fingerprint(recorder: MetricsRecorder) -> dict:
    """The fingerprint record for one run, as the behavior pins store it.

    The digest plus the human-comparable summary fields that say which
    way a run moved when the digest changes.
    """
    stats = recorder.messages
    canonical = canonical_metrics(recorder)
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    total_deliveries = sum(t.delivery_count for t in stats.traces.values())
    return {
        "sha256": digest,
        "total_one_hop_sends": stats.total_sends(),
        "total_deliveries": total_deliveries,
        "sends_by_kind": canonical["sends_by_kind"],
        "matched_notifications": recorder.matched_notifications,
        "delay_count": len(recorder._notification_delays),
        "delay_sum_repr": repr(sum(sorted(recorder._notification_delays))),
    }
