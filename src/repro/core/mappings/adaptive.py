"""Nearly-static mappings for hotspot mitigation (Section 4.2).

The Discussion of Section 4.2 notes that purely static EK/SK mappings
make dynamic hotspots — all subscriptions and events falling into a
small portion of the space — hard to handle, and proposes "nearly
static EK- and SK-mappings in which infrequent changes may slightly
alter the initially defined functions in order to accommodate
hotspots", with the change knowledge disseminated so rarely that it
costs essentially nothing.

:class:`HotspotAdaptiveMapping` implements that idea as a wrapper
around any base mapping: an infrequent *rebalance* splits each hot key
``k`` into ``fan_out`` deterministic sibling keys spread around the
ring.  Two split modes cover the two kinds of hotspot:

- :attr:`SplitMode.STORAGE` — too many subscriptions pile up on the
  node covering ``k``.  Each subscription maps to **one** sibling
  (chosen by a content hash of the subscription, so the choice is
  stable and system-wide deterministic), and events visit **all**
  siblings.  Stored load divides by ~fan_out; event fan-out grows by
  fan_out - 1 keys for the split key only.
- :attr:`SplitMode.MATCHING` — too many events hammer the node.  Each
  subscription is stored on **all** siblings and each event picks
  **one** by content hash; matching load divides by ~fan_out at
  unchanged event fan-out.

Either way the mapping intersection rule is preserved: the side that
maps to *one* sibling always lands within the set the other side maps
to.  Each rebalance bumps an *epoch*; in a deployment the (tiny)
override table would be gossiped once per epoch — the "disseminated
very infrequently" part of the paper's argument.
"""

from __future__ import annotations

import enum
import hashlib

from repro.core.events import Event
from repro.core.mappings.base import AKMapping
from repro.core.subscriptions import Subscription
from repro.errors import MappingError
from repro.overlay.ids import KeyRuns


class SplitMode(enum.Enum):
    """Which side of a hot key's load the split spreads."""

    STORAGE = "storage"
    MATCHING = "matching"


class HotspotAdaptiveMapping(AKMapping):
    """Wrap a base mapping with infrequent hot-key splitting.

    Args:
        base: The wrapped stateless mapping.
        fan_out: How many keys a split hot key becomes (>= 2).
    """

    name = "hotspot-adaptive"

    def __init__(self, base: AKMapping, fan_out: int = 4) -> None:
        super().__init__(base.space, base.keyspace, base.discretization)
        if fan_out < 2:
            raise MappingError("fan_out must be at least 2")
        self._base = base
        self._fan_out = fan_out
        self._overrides: dict[int, tuple[SplitMode, tuple[int, ...]]] = {}
        self._epoch = 0

    @property
    def base(self) -> AKMapping:
        """The wrapped mapping."""
        return self._base

    @property
    def epoch(self) -> int:
        """Number of rebalances applied so far."""
        return self._epoch

    @property
    def overrides(self) -> dict[int, tuple[SplitMode, tuple[int, ...]]]:
        """Current hot-key split table: key -> (mode, sibling keys)."""
        return dict(self._overrides)

    def siblings_of(self, key: int) -> tuple[int, ...]:
        """The sibling set of a split key (empty tuple if not split)."""
        entry = self._overrides.get(key)
        return entry[1] if entry else ()

    # -- the nearly-static adjustment ------------------------------------

    def _siblings(self, key: int) -> tuple[int, ...]:
        """Deterministic sibling keys for a split key (incl. the key)."""
        siblings = [key]
        for index in range(1, self._fan_out):
            digest = hashlib.sha1(f"split:{key}:{index}".encode()).digest()
            siblings.append(int.from_bytes(digest[:8], "big") % self._keyspace.size)
        return tuple(dict.fromkeys(siblings))  # dedupe, keep order

    def rebalance(
        self,
        load_by_key: dict[int, int],
        hot_fraction: float = 0.01,
        mode: SplitMode = SplitMode.STORAGE,
    ) -> int:
        """Split the hottest keys; returns how many keys were split.

        Args:
            load_by_key: Observed load (stored subscriptions for
                :attr:`SplitMode.STORAGE`, matches/arrivals for
                :attr:`SplitMode.MATCHING`) per rendezvous key.
            hot_fraction: Fraction of observed keys to split, by load
                rank (at least one key if any load was observed).
            mode: Which side of the load the split spreads.
        """
        if not 0 < hot_fraction <= 1:
            raise MappingError(f"hot_fraction {hot_fraction} outside (0, 1]")
        candidates = [
            key for key in sorted(load_by_key, key=load_by_key.get, reverse=True)
            if key not in self._overrides and load_by_key[key] > 0
        ]
        if not candidates:
            return 0
        count = max(1, int(len(candidates) * hot_fraction))
        for key in candidates[:count]:
            self._overrides[key] = (mode, self._siblings(key))
        self._epoch += 1
        return count

    # -- content-addressed sibling choice -----------------------------------

    @staticmethod
    def _pick(siblings: tuple[int, ...], token: str) -> int:
        digest = hashlib.sha1(token.encode()).digest()
        return siblings[int.from_bytes(digest[:4], "big") % len(siblings)]

    @staticmethod
    def _subscription_token(subscription: Subscription) -> str:
        """A content token stable across re-subscriptions of the same σ."""
        return repr(
            tuple(
                (c.attribute, c.low, c.high) for c in subscription.constraints
            )
        )

    # -- SK / EK with overrides applied ------------------------------------

    def subscription_key_groups(
        self, subscription: Subscription
    ) -> tuple[KeyRuns, ...]:
        token = self._subscription_token(subscription)
        groups = []
        for group in self._base.subscription_key_groups(subscription):
            expanded: list[int] = []
            for key in group:
                entry = self._overrides.get(key)
                if entry is None:
                    expanded.append(key)
                    continue
                mode, siblings = entry
                if mode is SplitMode.STORAGE:
                    expanded.append(self._pick(siblings, f"{key}:{token}"))
                else:
                    expanded.extend(siblings)
            groups.append(KeyRuns.from_keys(expanded))
        return tuple(groups)

    def event_keys(self, event: Event) -> KeyRuns:
        keys: list[int] = []
        for key in self._base.event_keys(event):
            entry = self._overrides.get(key)
            if entry is None:
                keys.append(key)
                continue
            mode, siblings = entry
            if mode is SplitMode.STORAGE:
                keys.extend(siblings)
            else:
                keys.append(self._pick(siblings, f"{key}:{event.values}"))
        return KeyRuns.from_keys(keys)
