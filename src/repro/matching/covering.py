"""Subscription covering index: collapse covered predicates at rendezvous.

The paper's selective-attribute mapping concentrates subscriptions on a
few rendezvous nodes; under Zipf interest most of those predicates are
redundant — they are *covered* by a broader subscription already stored
at the same node (σ₁ covers σ₂ iff every event matching σ₂ also matches
σ₁, see :meth:`repro.core.subscriptions.Subscription.covers`).  The
:class:`CoveringIndex` maintains the covering partial order as a forest:

- **roots** are the least-covered summaries — the only subscriptions the
  node's matching engine sees;
- every other subscription hangs as a descendant **leaf** under some
  coverer and costs the matcher nothing.

Matching exploits that the match relation is upward-closed through the
covering order: if an event fails a subscription it fails everything
that subscription covers.  So a publication is matched against the
roots-only engine first, and only subtrees under *hit* roots are fanned
into — a pruned DFS that tests each visited descendant's predicate and
prunes its subtree on a miss.  The result is exactly the set the
uncollapsed store would have matched (pinned by the hypothesis parity
suite in ``tests/matching/test_covering.py``).

Removal keeps the forest correct when a coverer dies before the
subscriptions it covers:

- removing a **leaf** splices its children up to its parent (the
  grandparent covers them transitively);
- removing a **root** promotes its direct children back to roots — the
  caller re-installs them into the matching engine (the
  ``promotions`` counter tracks this re-expansion).

All orders are deterministic (insertion order scans, LIFO DFS), so a
seeded run produces an identical forest and match stream every time.
"""

from __future__ import annotations

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError


class CoveringIndex:
    """Covering forest over one rendezvous store's subscriptions.

    Counters (cumulative over the index's lifetime):

    Attributes:
        collapsed_total: Subscriptions installed under (or demoted
            beneath) a coverer instead of entering the matching engine.
        promotions_total: Covered subscriptions promoted back to roots
            because their covering root was removed.
    """

    __slots__ = (
        "_subs",
        "_roots",
        "_parent",
        "_children",
        "collapsed_total",
        "promotions_total",
    )

    def __init__(self) -> None:
        self._subs: dict[int, Subscription] = {}
        # Insertion-ordered root set; values are the subscriptions so
        # the coverer scan needs no second lookup.
        self._roots: dict[int, Subscription] = {}
        self._parent: dict[int, int] = {}
        self._children: dict[int, list[int]] = {}
        self.collapsed_total = 0
        self.promotions_total = 0

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subs

    @property
    def root_count(self) -> int:
        """Number of current roots (= matcher-resident subscriptions)."""
        return len(self._roots)

    @property
    def collapsed_count(self) -> int:
        """Number of currently collapsed (non-root) subscriptions."""
        return len(self._parent)

    def is_root(self, subscription_id: int) -> bool:
        """True if the subscription currently sits in the root set."""
        return subscription_id in self._roots

    def roots(self) -> list[Subscription]:
        """Current roots in insertion order."""
        return list(self._roots.values())

    def add(self, subscription: Subscription) -> tuple[bool, list[int]]:
        """Insert a subscription into the forest.

        Returns ``(became_root, demoted_ids)``: when ``became_root`` is
        True the caller must add the subscription to its matching
        engine and remove every id in ``demoted_ids`` from it (existing
        roots now covered by — and re-parented under — the newcomer).
        When False the subscription was collapsed under a coverer and
        the engine is untouched.
        """
        sid = subscription.subscription_id
        subs = self._subs
        if sid in subs:
            raise ValueError(f"subscription {sid} already indexed")
        roots = self._roots
        space = subscription.space
        for resident in roots.values():
            # One space per forest (any resident speaks for it): the
            # scans below compare bounds attribute by attribute.
            if resident.space is not space and resident.space != space:
                raise DataModelError("subscription spaces differ")
            break
        subs[sid] = subscription
        # ``a`` covers ``b`` (Subscription.covers) iff a's proper mask
        # is within b's and each of a's proper rows contains b's
        # effective bounds; both scans below run that test in place.
        mask = subscription.proper_mask
        lows = subscription.lows
        highs = subscription.highs
        # First covering root wins (deterministic insertion-order scan),
        # then descend greedily to the deepest coverer on that branch so
        # chains like [0,9] ⊒ [2,7] ⊒ [3,5] nest instead of fanning out.
        children = self._children
        parent = -1
        level = roots  # ids of the candidates one level below ``parent``
        while True:
            deeper = -1
            for node_id in level:
                node = subs[node_id]
                if node.proper_mask & ~mask:
                    continue
                for attribute, low, high in node.proper_rows:
                    if lows[attribute] < low or highs[attribute] > high:
                        break
                else:
                    deeper = node_id
                    break
            if deeper < 0:
                break
            parent = deeper
            level = children.get(parent, ())
        if parent >= 0:
            self._parent[sid] = parent
            children.setdefault(parent, []).append(sid)
            self.collapsed_total += 1
            return False, []
        # New root: any existing roots it covers collapse beneath it
        # (their own subtrees ride along untouched).
        rows = subscription.proper_rows
        demoted = []
        for root_id, root in roots.items():
            if mask & ~root.proper_mask:
                continue
            root_lows = root.lows
            root_highs = root.highs
            for attribute, low, high in rows:
                if root_lows[attribute] < low or root_highs[attribute] > high:
                    break
            else:
                demoted.append(root_id)
        if demoted:
            kids = self._children.setdefault(sid, [])
            for root_id in demoted:
                del roots[root_id]
                self._parent[root_id] = sid
                kids.append(root_id)
            self.collapsed_total += len(demoted)
        roots[sid] = subscription
        return True, demoted

    def remove(self, subscription_id: int) -> tuple[bool, list[Subscription]]:
        """Drop a subscription, repairing the forest around it.

        Returns ``(was_root, promoted)``: when ``was_root`` is True the
        caller must remove the id from its matching engine and add every
        subscription in ``promoted`` (the direct children, now roots).
        A removed leaf splices its children up to its parent and leaves
        the engine untouched.
        """
        self._subs.pop(subscription_id)
        kids = self._children.pop(subscription_id, None)
        if subscription_id in self._roots:
            del self._roots[subscription_id]
            promoted: list[Subscription] = []
            if kids:
                subs = self._subs
                parent = self._parent
                for child_id in kids:
                    del parent[child_id]
                    child = subs[child_id]
                    self._roots[child_id] = child
                    promoted.append(child)
                self.promotions_total += len(kids)
            return True, promoted
        parent_id = self._parent.pop(subscription_id)
        siblings = self._children[parent_id]
        siblings.remove(subscription_id)
        if kids:
            parent = self._parent
            for child_id in kids:
                parent[child_id] = parent_id
            siblings.extend(kids)
        if not siblings:
            del self._children[parent_id]
        return False, []

    def expand(
        self, matched_roots: list[Subscription], event: Event
    ) -> tuple[list[int], int, int]:
        """Fan a roots-only match result into the covered subtrees.

        Pruned DFS: a visited descendant whose predicate fails the event
        prunes its whole subtree (match is upward-closed through the
        covering order, so nothing below it can match).  Returns
        ``(matched_ids, tested, hit)`` — all matching subscription ids
        (roots included, unsorted), how many descendant predicates were
        tested, and how many of those hit (the caller folds both into
        its :class:`~repro.telemetry.load.MatchWork` accounting).
        """
        children = self._children
        subs = self._subs
        matched: list[int] = []
        tested = 0
        hit = 0
        stack: list[int] = []
        for root in matched_roots:
            root_id = root.subscription_id
            matched.append(root_id)
            kids = children.get(root_id)
            if kids:
                stack.extend(kids)
        if stack:
            # The forest holds one space (see add): check the event's
            # once for the whole descent.
            space = subs[stack[-1]].space
            if event.space is not space and event.space != space:
                raise DataModelError("event and subscription spaces differ")
        values = event.values
        while stack:
            sid = stack.pop()
            tested += 1
            for attribute, low, high in subs[sid].rows:
                if not low <= values[attribute] <= high:
                    break
            else:
                hit += 1
                matched.append(sid)
                kids = children.get(sid)
                if kids:
                    stack.extend(kids)
        return matched, tested, hit
