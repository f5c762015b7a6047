"""Per-node / per-key load attribution (the rendezvous observatory).

A :class:`LoadMeter` rides on an *enabled* :class:`~repro.telemetry.
Telemetry` and attributes the run's work to the entities that performed
it:

- **per overlay node** — one-hop messages routed or forwarded (the
  ``send`` event, charged to the forwarding source), terminal
  application deliveries (``deliver``), subscriptions stored
  (``store``), and matcher work (candidate set sizes, exact
  verifications, matches) via the per-node :class:`MatchWork` handles
  it hands each rendezvous store as the node comes up (``join``);
- **per rendezvous key** — subscriptions stored under the key and
  publication deliveries that reached a node covering it (``match``);
- **queue pressure** — the depth of every drained ``(dst, instant)``
  inbox bucket (``drain``), kept as per-node drain counts and max
  depths.

The meter is a plain subscriber of the run's observer tap
(:mod:`repro.telemetry.tap`): no layer holds a reference to it, and a
run without one executes an empty loop at each of those events.

:meth:`LoadMeter.sample` runs on the simulated clock (invoked by
:meth:`Telemetry.sample`): it snapshots the skew statistics of the
node and key distributions (:func:`repro.metrics.skew.skew_summary`)
and feeds the cumulative node loads to the windowed
:class:`~repro.metrics.skew.OverloadDetector`, whose events ride the
JSONL export next to the final per-entity load records.
"""

from __future__ import annotations

from repro.metrics.skew import OverloadDetector, skew_summary

#: Hot entities reported per scope in skew samples and final records.
TOP_K = 10


class MatchWork:
    """Cumulative matcher work counters for one rendezvous node.

    Handed to the node's rendezvous store, which passes it to its
    matcher (``matcher.work``); the store's scan and the matching
    engines add to these on every ``match()`` call when the handle is
    attached, and never touch them otherwise (one identity check).  A
    store below :data:`~repro.core.rendezvous.SCAN_LIMIT` entries has
    no engine: its scan counts every resident entry as both candidate
    and verify, as the brute-force engine does.

    The ``cover_*`` fields mirror the node's covering index
    (:class:`~repro.matching.covering.CoveringIndex`): current roots
    (the matcher-resident summaries), cumulative collapsed installs,
    and cumulative promotions of covered leaves back to roots.  They
    stay zero when covering is disabled and until the store builds its
    index at ``SCAN_LIMIT`` entries.
    """

    __slots__ = (
        "node",
        "candidates",
        "verified",
        "matched",
        "cover_roots",
        "cover_collapsed",
        "cover_promotions",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.candidates = 0
        self.verified = 0
        self.matched = 0
        self.cover_roots = 0
        self.cover_collapsed = 0
        self.cover_promotions = 0


class NodeSends(dict):
    """One-hop sends per source node: a ``send`` subscriber that is its
    own table (the load meter's ``forwarded`` column)."""

    def on_send(self, message, src, dst, now, arrival) -> None:
        self[src] = self.get(src, 0) + 1


class LoadMeter:
    """Load-attribution sink of one run (see module docstring).

    Args:
        overload_threshold: A node is flagged when its load in one
            sample window strictly exceeds this multiple of the ring's
            median window load (see
            :class:`~repro.metrics.skew.OverloadDetector`).
        top_k: Entities reported per scope in skew samples and records.
    """

    def __init__(
        self, overload_threshold: float = 4.0, top_k: int = TOP_K
    ) -> None:
        self.top_k = top_k
        # Per-node counters.  The send count is its own subscriber.
        self.forwarded = NodeSends()
        self.on_send = self.forwarded.on_send
        self.delivered: dict[int, int] = {}
        self.subscriptions_stored: dict[int, int] = {}
        self.bucket_drains: dict[int, int] = {}
        self.bucket_max_depth: dict[int, int] = {}
        self.match_work: dict[int, MatchWork] = {}
        # Per-rendezvous-key counters.
        self.key_subscriptions: dict[int, int] = {}
        self.key_publications: dict[int, int] = {}
        # Skew samples: (t, {"node": SkewSummary, "key": SkewSummary}).
        self.skew_samples: list[tuple[float, dict]] = []
        self.detector = OverloadDetector(threshold=overload_threshold)

    # -- tap events ----------------------------------------------------------

    def on_deliver(self, message, node: int, now: float) -> None:
        """One terminal application delivery at ``node``."""
        self.delivered[node] = self.delivered.get(node, 0) + 1

    def on_drain(self, dst: int, depth: int) -> None:
        """One ``(dst, instant)`` inbox bucket of ``depth`` messages drained."""
        self.bucket_drains[dst] = self.bucket_drains.get(dst, 0) + 1
        if depth > self.bucket_max_depth.get(dst, 0):
            self.bucket_max_depth[dst] = depth

    def on_join(self, node) -> None:
        """A pub/sub node came up: its matcher reports to our handle."""
        node.store.attach_match_stats(self.match_work_for(node.id))

    def on_store(self, node, message) -> None:
        """One subscription installed at ``node``: charge the keys of
        ``message`` it covers."""
        node_id = node.id
        self.subscriptions_stored[node_id] = (
            self.subscriptions_stored.get(node_id, 0) + 1
        )
        key_subscriptions = self.key_subscriptions
        for key in node.covered_targets(message):
            key_subscriptions[key] = key_subscriptions.get(key, 0) + 1

    def on_match(self, node, message, matched) -> None:
        """One publication matched at ``node``: charge the keys it covers."""
        key_publications = self.key_publications
        for key in node.covered_targets(message):
            key_publications[key] = key_publications.get(key, 0) + 1

    def match_work_for(self, node: int) -> MatchWork:
        """Get-or-create the matcher work handle of one node."""
        work = self.match_work.get(node)
        if work is None:
            work = MatchWork(node)
            self.match_work[node] = work
        return work

    # -- aggregation -------------------------------------------------------

    def node_loads(self) -> dict[int, float]:
        """Total load per node: forwarded + delivered messages.

        The message count is the attribution unit because it is what a
        deployed broker pays for (CPU to route, bandwidth to carry);
        matcher work and storage are reported separately per node.
        Every node seen joining (it holds a :class:`MatchWork` handle)
        counts, at zero if it stayed idle: an idle node is part of the
        ring's load distribution, for the skew samples and for the
        overload detector's median alike.
        """
        loads = dict.fromkeys(self.match_work, 0.0)
        for node, count in self.forwarded.items():
            loads[node] = loads.get(node, 0.0) + count
        for node, count in self.delivered.items():
            loads[node] = loads.get(node, 0.0) + count
        return loads

    def key_loads(self) -> dict[int, float]:
        """Total load per rendezvous key: stored subscriptions + pubs."""
        loads: dict[int, float] = {}
        for key, count in self.key_subscriptions.items():
            loads[key] = loads.get(key, 0.0) + count
        for key, count in self.key_publications.items():
            loads[key] = loads.get(key, 0.0) + count
        return loads

    def match_work_loads(self) -> dict[int, float]:
        """Matcher work per *active* rendezvous node.

        Load unit is ``candidates + verified`` — the per-event cost the
        matching engine actually paid.  Nodes that never matched are
        omitted (handles exist for every node, but an all-zero entry
        says "not a rendezvous for this workload", not "evenly
        loaded"), so the skew of this distribution is the skew of the
        matching work the covering index is built to shed.
        """
        loads: dict[int, float] = {}
        for node, work in self.match_work.items():
            cost = work.candidates + work.verified
            if cost:
                loads[node] = float(cost)
        return loads

    def covering_totals(self) -> dict[str, int]:
        """Ring-wide covering gauges summed over the per-node handles."""
        roots = collapsed = promotions = 0
        for work in self.match_work.values():
            roots += work.cover_roots
            collapsed += work.cover_collapsed
            promotions += work.cover_promotions
        return {
            "roots": roots,
            "collapsed": collapsed,
            "promotions": promotions,
        }

    # -- sim-clock sampling --------------------------------------------------

    def sample(self, now: float) -> None:
        """Snapshot skew statistics and run one overload window.

        Called by :meth:`Telemetry.sample` on the simulated clock, so
        skew series and overload events carry sim-time stamps like
        every other exported series.
        """
        node_loads = self.node_loads()
        self.skew_samples.append(
            (
                now,
                {
                    "node": skew_summary(node_loads, self.top_k),
                    "key": skew_summary(self.key_loads(), self.top_k),
                },
            )
        )
        self.detector.observe(now, node_loads)

    # -- export (JSONL) ------------------------------------------------------

    def load_records(self) -> list[dict]:
        """Final per-entity ``load`` records, deterministic order."""
        records: list[dict] = []
        for node in sorted(
            set(self.forwarded)
            | set(self.delivered)
            | set(self.subscriptions_stored)
            | set(self.bucket_drains)
            | set(self.match_work)
        ):
            work = self.match_work.get(node)
            records.append(
                {
                    "type": "load",
                    "scope": "node",
                    "id": node,
                    "forwarded": self.forwarded.get(node, 0),
                    "delivered": self.delivered.get(node, 0),
                    "subscriptions": self.subscriptions_stored.get(node, 0),
                    "bucket_drains": self.bucket_drains.get(node, 0),
                    "bucket_max_depth": self.bucket_max_depth.get(node, 0),
                    "match_candidates": work.candidates if work else 0,
                    "match_verified": work.verified if work else 0,
                    "match_matched": work.matched if work else 0,
                    "cover_roots": work.cover_roots if work else 0,
                    "cover_collapsed": work.cover_collapsed if work else 0,
                    "cover_promotions": work.cover_promotions if work else 0,
                }
            )
        for key in sorted(set(self.key_subscriptions) | set(self.key_publications)):
            records.append(
                {
                    "type": "load",
                    "scope": "key",
                    "id": key,
                    "subscriptions": self.key_subscriptions.get(key, 0),
                    "publications": self.key_publications.get(key, 0),
                }
            )
        return records

    def skew_records(self) -> list[dict]:
        """Sim-time ``skew`` records, one per (sample, scope)."""
        return [
            {"type": "skew", "t": t, "scope": scope, **summary.as_dict()}
            for t, scopes in self.skew_samples
            for scope, summary in scopes.items()
        ]

    def overload_records(self) -> list[dict]:
        """``overload`` records: the windowed detector's events."""
        return [event.as_dict() for event in self.detector.events]
