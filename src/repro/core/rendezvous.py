"""The rendezvous subscription store (Section 4.1).

Each node stores the subscriptions whose SK keys it covers, one
:class:`~repro.core.payloads.StoredSubscription` record each, enforces
expiration times (the paper's stand-in for unsubscriptions, Section
5.1), and matches incoming events against the live entries.
"""

from __future__ import annotations

import math

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
)


def _vector_engine(space: EventSpace) -> Matcher:
    # numpy loads with the first vector engine a store builds, so a run
    # whose stores never reach SCAN_LIMIT, or use another engine, never
    # imports it.
    from repro.matching.vector import make_vector_matcher

    return make_vector_matcher(space)


#: Engine constructors by matcher name, each called with the event space.
ENGINES = {
    "brute": lambda space: BruteForceMatcher(),
    "grid": GridIndexMatcher,
    "radix": RadixBitmapMatcher,
    "vector": _vector_engine,
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
            :meth:`match`).  It holds for every engine except
            ``"brute"``, which stays the uncollapsed oracle the others
            are audited against.

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

    __slots__ = (
        "_entries", "_space", "_engine", "_collapse", "_matcher", "_covering",
        "_work", "_next_expiry",
    )

    def __init__(
        self,
        space: EventSpace,
        matcher: str = "brute",
        covering: bool = True,
    ) -> None:
        self._entries: dict[int, StoredSubscription] = {}
        if matcher not in ENGINES:
            raise ValueError(f"unknown matcher {matcher!r}")
        self._space = space
        self._engine = ENGINES[matcher]
        self._collapse = covering and matcher != "brute"
        # The matching engine and covering index, built at SCAN_LIMIT
        # entries, and the attached MatchWork, if any.
        self._matcher: Matcher | None = None
        self._covering: CoveringIndex | None = None
        self._work = None
        # No resident entry expires before this time (a lower bound).
        self._next_expiry = math.inf

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
        a single identity check when not).
        """
        self._work = stats
        if self._matcher is not None:
            self._matcher.work = stats

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
        expire_at = entry.expire_at
        if expire_at is not None and expire_at < self._next_expiry:
            self._next_expiry = expire_at
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
        return True

    def purge_expired(self, now: float) -> int:
        """Drop every expired entry; returns how many were removed."""
        # Storage snapshots call this across the whole ring, and most
        # stores are empty or hold nothing due yet: until the earliest
        # expiry the bound is the whole purge, not a scan of entries.
        if now < self._next_expiry:
            return 0
        expired = []
        earliest = math.inf
        for sid, entry in self._entries.items():
            if entry.expired(now):
                expired.append(sid)
            elif entry.expire_at is not None and entry.expire_at < earliest:
                earliest = entry.expire_at
        self._next_expiry = earliest
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
