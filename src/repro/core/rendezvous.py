"""The rendezvous subscription store (Section 4.1).

Each node stores the subscriptions whose SK keys it covers, one
:class:`~repro.core.payloads.StoredSubscription` record each, enforces
expiration times (the paper's stand-in for unsubscriptions, Section
5.1), and matches incoming events against the live entries.
"""

from __future__ import annotations

from repro.core.events import Event, EventSpace
from repro.core.payloads import StoredSubscription, SubscribePayload
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError
from repro.matching import (
    BruteForceMatcher,
    CoveringIndex,
    GridIndexMatcher,
    Matcher,
    RadixBitmapMatcher,
    make_vector_matcher,
)

#: Engine constructors by matcher name, each called with the event space.
_ENGINES = {
    "brute": lambda space: BruteForceMatcher(),
    "grid": GridIndexMatcher,
    "radix": RadixBitmapMatcher,
    "vector": make_vector_matcher,
}

#: Entries at which a store stops scanning and builds its engine and
#: covering index.  Replaying each of ``match-dense``'s 64 rendezvous
#: nodes' own installs and matches (seed 1, Python 3.11, 2 vCPUs)
#: against a store that scans throughout and one with a grid and
#: covering index from its first install, the two cost the same at
#: 12-15 installs (index / scan time 1.30 below 8, 1.03 at 8-11, 0.98
#: at 12-15, 0.81 at 16-23, 0.32 past 128), so the index pays from 16.
SCAN_LIMIT = 16


class SubscriptionStore:
    """Subscription storage + matching for one rendezvous node.

    Args:
        space: The event space every installed subscription and every
            matched event must share.
        matcher: ``"brute"``, ``"grid"``, ``"radix"``, or ``"vector"``
            — which matching engine backs the store (``"radix"``
            favors equality-dense subscription populations;
            ``"vector"`` is the numpy-verified grid engine, falling
            back to ``"grid"`` when numpy is unavailable).
        covering: Collapse covered subscriptions under a
            :class:`~repro.matching.covering.CoveringIndex` so the
            engine only sees the least-covered roots (see
            :meth:`match`).  ``None`` (the default) enables covering
            for every engine except ``"brute"``, which stays the
            uncollapsed oracle the others are audited against.

    A store has two regimes.  Below :data:`SCAN_LIMIT` entries it keeps
    no engine and no covering index: :meth:`match` tests every entry's
    compiled rows, as the brute-force engine does.  Under Mapping 3
    most rendezvous nodes hold a handful of subscriptions or none, so
    most stores never leave this regime.  The install that brings the
    store to :data:`SCAN_LIMIT` entries builds the engine and the
    covering index from the entries, and from then on the store keeps
    them, also when it drains below the limit again (no rebuild under
    churn handoffs).  Both regimes return the same entries in the same
    order and refuse a subscription from a foreign event space at
    :meth:`put`.
    """

    #: The matching engine and covering index, built at SCAN_LIMIT entries.
    _matcher: Matcher | None = None
    _covering: CoveringIndex | None = None
    #: The attached :class:`~repro.telemetry.load.MatchWork`, if any.
    _work = None

    def __init__(
        self,
        space: EventSpace,
        matcher: str = "brute",
        covering: bool | None = None,
    ) -> None:
        self._entries: dict[int, StoredSubscription] = {}
        if matcher not in _ENGINES:
            raise ValueError(f"unknown matcher {matcher!r}")
        self._space = space
        self._engine = _ENGINES[matcher]
        if covering is None:
            covering = matcher != "brute"
        self._collapse = covering

    @property
    def covering(self) -> CoveringIndex | None:
        """The covering index, or None before the store builds one (and
        always when uncollapsed)."""
        return self._covering

    def attach_match_stats(self, stats) -> None:
        """Attribute this store's matcher work to ``stats``.

        ``stats`` is a :class:`~repro.telemetry.load.MatchWork` handle;
        the store's scan or its engine adds candidate/verify/match
        counts to it on every ``match()`` call once attached (and pays
        a single identity check when not).  Once the store has built its
        covering index, the covering gauges are synced into the same
        handle on every install/remove.
        """
        self._work = stats
        if self._matcher is not None:
            self._matcher.work = stats
        if stats is not None and self._covering is not None:
            self._sync_cover_stats()

    def _sync_cover_stats(self) -> None:
        """Mirror the covering gauges into the attached work handle."""
        work = self._work
        if work is not None:
            covering = self._covering
            work.cover_roots = covering.root_count
            work.cover_collapsed = covering.collapsed_total
            work.cover_promotions = covering.promotions_total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._entries

    def entries(self) -> list[StoredSubscription]:
        """All resident entries (including not-yet-purged expired ones)."""
        return list(self._entries.values())

    def get(self, subscription_id: int) -> StoredSubscription | None:
        """The entry for a subscription id, if resident."""
        return self._entries.get(subscription_id)

    def put(
        self, payload: SubscribePayload, keys: object, now: float
    ) -> StoredSubscription:
        """Install (or refresh) a subscription received at ``now``.

        With per-key unicast propagation (the aggressive baseline) the
        same node legitimately receives one copy per covered key, so a
        re-install is idempotent on the matcher.  A refresh replaces the
        record, which restarts the TTL clock.
        """
        # keys is accepted and ignored: the ledger's rendezvous micro
        # (benchmarks/ledger/micro.py) still passes a key set.
        ttl = payload.ttl
        return self.restore(
            StoredSubscription(payload, None if ttl is None else now + ttl)
        )

    def restore(self, entry: StoredSubscription) -> StoredSubscription:
        """Install a shipped record as it is (its absolute expiry kept),
        replacing a resident record of the same subscription."""
        payload = entry.payload
        sid = payload.subscription.subscription_id
        entries = self._entries
        if sid in entries:
            entries[sid] = entry
        else:
            space = payload.subscription.space
            if space is not self._space:
                if space != self._space:
                    raise DataModelError("subscription space differs from store space")
                # An equal copy (a trace built apart from the system):
                # adopt it, so the checks against events from the same
                # trace, here and in the engine, hit on identity.
                self._space = space
            entries[sid] = entry
            if self._matcher is not None:
                self._index(payload.subscription)
            elif len(entries) >= SCAN_LIMIT:
                matcher = self._matcher = self._engine(self._space)
                matcher.work = self._work
                if self._collapse:
                    self._covering = CoveringIndex()
                for resident in entries.values():
                    self._index(resident.payload.subscription)
        return entry

    def _index(self, subscription: Subscription) -> None:
        """Install a new subscription in the engine (through the
        covering forest when collapsing)."""
        matcher = self._matcher
        covering = self._covering
        if covering is None:
            matcher.add(subscription)
            return
        became_root, demoted = covering.add(subscription)
        if became_root:
            matcher.add(subscription)
            for demoted_id in demoted:
                matcher.remove(demoted_id)
        self._sync_cover_stats()

    def remove(self, subscription_id: int) -> bool:
        """Drop a subscription entirely; True if it was resident.

        With covering enabled the forest repairs itself: a removed leaf
        splices its children to its parent, a removed root promotes its
        direct children back into the matching engine — so a coverer
        dying (expiry, unsubscribe, churn) never strands the
        subscriptions it covered.
        """
        entry = self._entries.pop(subscription_id, None)
        if entry is None:
            return False
        matcher = self._matcher
        if matcher is None:
            return True
        covering = self._covering
        if covering is None:
            matcher.remove(subscription_id)
        else:
            was_root, promoted = covering.remove(subscription_id)
            if was_root:
                matcher.remove(subscription_id)
                for subscription in promoted:
                    matcher.add(subscription)
            self._sync_cover_stats()
        return True

    def purge_expired(self, now: float) -> int:
        """Drop every expired entry; returns how many were removed."""
        # Storage snapshots call this across the whole ring; at scale
        # almost every store is empty, so the early-out is the
        # difference between O(samples) and O(samples * nodes).
        if not self._entries:
            return 0
        expired = [sid for sid, e in self._entries.items() if e.expired(now)]
        for sid in expired:
            self.remove(sid)
        return len(expired)

    def live_count(self, now: float) -> int:
        """Number of non-expired entries (purging as a side effect)."""
        self.purge_expired(now)
        return len(self._entries)

    def match(self, event: Event, now: float) -> list[StoredSubscription]:
        """Live entries whose subscription the event satisfies, in
        subscription-id order.

        Before the store has built its engine, every entry's compiled
        rows are tested in one loop (:meth:`_scan`).  After, with
        covering enabled the engine only matched the roots; hit roots
        are fanned into their covered subtrees by a pruned DFS
        (:meth:`~repro.matching.covering.CoveringIndex.expand`) and the
        combined result is re-sorted — the order every engine produces,
        so neither the regime nor covering shows in the delivery
        stream.  Expiry stays lazy: expired entries are filtered here
        and removed afterwards (removing a covering root mid-match
        promotes its children for *future* events; this event already
        expanded through it).
        """
        matcher = self._matcher
        entries = self._entries
        if matcher is None:
            matched_ids = self._scan(event)
            if not matched_ids:
                return matched_ids
        else:
            matched = matcher.match(event)
            covering = self._covering
            if covering is None or not covering.collapsed_count:
                result = []
                for subscription in matched:
                    entry = entries[subscription.subscription_id]
                    if entry.expired(now):
                        self.remove(subscription.subscription_id)
                        continue
                    result.append(entry)
                return result
            matched_ids, tested, hit = covering.expand(matched, event)
            work = self._work
            if work is not None and tested:
                work.candidates += tested
                work.verified += tested
                work.matched += hit
            matched_ids.sort()
        result = []
        doomed = None
        for sid in matched_ids:
            entry = entries[sid]
            if entry.expired(now):
                if doomed is None:
                    doomed = []
                doomed.append(sid)
            else:
                result.append(entry)
        if doomed:
            for sid in doomed:
                self.remove(sid)
        return result

    def _scan(self, event: Event) -> list[int]:
        """Ids of the entries the event satisfies, in id order: the
        match before the store has built its engine, which tests every
        entry as the brute-force engine does."""
        entries = self._entries
        if not entries:
            return []
        space = event.space
        if space is not self._space and space != self._space:
            raise DataModelError("event and subscription spaces differ")
        values = event.values
        hits = []
        for sid, entry in entries.items():
            for attribute, low, high in entry.payload.subscription.rows:
                if not low <= values[attribute] <= high:
                    break
            else:
                hits.append(sid)
        work = self._work
        if work is not None:
            # Every entry is both candidate and verify, as in brute force.
            work.candidates += len(entries)
            work.verified += len(entries)
            work.matched += len(hits)
        if hits:
            hits.sort()
        return hits
