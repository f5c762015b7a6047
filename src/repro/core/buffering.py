"""Notification buffering and collecting (Section 4.3.2).

Without the optimization, a rendezvous node sends one short notification
message per match, immediately.  With *buffering*, matches accumulate
for a configurable period and are flushed in per-subscriber batches.
With *collecting* (which builds on buffering), the nodes spanning a
subscription's rendezvous range aggregate their matches hop by hop
toward the range's middle node — the subscription's *agent* — which
alone talks to the subscriber; neighbor exchange messages are amortized
across all subscriptions buffered for the same neighbor.
"""

from __future__ import annotations

import dataclasses

from repro.core.payloads import Notification
from repro.overlay.ids import KeyRuns


@dataclasses.dataclass
class BufferedBatch:
    """Accumulated matches for one (subscriber, subscription) pair.

    Attributes:
        subscriber: Destination node of the eventual notification.
        subscription_id: The matched subscription.
        agent_key: Middle key of the subscription's rendezvous group at
            this node, or None when collecting is off (flush goes
            straight to the subscriber).
        notifications: The accumulated matches.
    """

    subscriber: int
    subscription_id: int
    agent_key: int | None
    notifications: list[Notification] = dataclasses.field(default_factory=list)


class NotificationBuffer:
    """Per-node accumulation of matches between flushes."""

    def __init__(self) -> None:
        self._batches: dict[tuple[int, int], BufferedBatch] = {}

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def pending_notifications(self) -> int:
        """Total matches currently buffered."""
        return sum(len(b.notifications) for b in self._batches.values())

    def add(
        self,
        subscriber: int,
        subscription_id: int,
        agent_key: int | None,
        notifications: list[Notification] | tuple[Notification, ...],
    ) -> None:
        """Buffer matches for a (subscriber, subscription) pair.

        Matches collected from a neighbor (COLLECT payloads) are merged
        into the same batch as locally detected ones.
        """
        key = (subscriber, subscription_id)
        batch = self._batches.get(key)
        if batch is None:
            batch = BufferedBatch(
                subscriber=subscriber,
                subscription_id=subscription_id,
                agent_key=agent_key,
            )
            self._batches[key] = batch
        elif agent_key is not None and batch.agent_key is None:
            batch.agent_key = agent_key
        batch.notifications.extend(notifications)

    def drain(self) -> list[BufferedBatch]:
        """Remove and return all non-empty batches (flush)."""
        batches = [b for b in self._batches.values() if b.notifications]
        self._batches.clear()
        return batches


def agent_key_for(groups: tuple[KeyRuns, ...], covered_key: int) -> int:
    """The collecting agent for the rendezvous group containing a key.

    Section 4.3.2: "the middle node of the range serves as agent for
    this subscription".  We designate the middle *key* of the group the
    covered key belongs to, its ``len // 2``-th key in clockwise order;
    the node covering that key is the agent.  Falls back to the covered
    key itself if it appears in no group (defensive: group metadata and
    covered keys always agree in practice).
    """
    for group in groups:
        if covered_key in group:
            middle = len(group) // 2
            for start, length in zip(group[::2], group[1::2]):
                if middle < length:
                    return start + middle
                middle -= length
    return covered_key
