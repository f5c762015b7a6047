"""Payload dataclasses: shipped records, replication chains, immutability."""

import dataclasses

import pytest

from repro.core.events import EventSpace
from repro.core.payloads import (
    Notification,
    NotifyPayload,
    ReplicaPayload,
    ReplicaRemovePayload,
    StoredSubscription,
    SubscribePayload,
)
from repro.core.subscriptions import Subscription

SPACE = EventSpace.uniform(("a1",), 100)


def make_subscribe(ttl=None):
    return SubscribePayload(
        subscription=Subscription.build(SPACE, a1=(1, 5)),
        subscriber=9,
        ttl=ttl,
        groups=((1, 2),),
    )


def test_payloads_are_frozen():
    payload = make_subscribe()
    with pytest.raises(dataclasses.FrozenInstanceError):
        payload.subscriber = 10  # type: ignore[misc]


def test_snapshot_is_self_contained():
    # The stored record is what replication and state transfer ship: it
    # names the subscriber and SK(σ) through its payload, and is frozen.
    payload = make_subscribe(ttl=30.0)
    entry = StoredSubscription(payload=payload, expire_at=42.0)
    assert entry.subscriber == 9
    assert entry.expire_at == 42.0
    assert entry.payload.groups == ((1, 2),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.expire_at = 50.0  # type: ignore[misc]
    assert not hasattr(entry, "__dict__")


def test_replica_chain_decrement_semantics():
    entry = StoredSubscription(payload=make_subscribe(), expire_at=None)
    first = ReplicaPayload(owner=5, entries=(entry,), remaining=3)
    second = ReplicaPayload(
        owner=first.owner, entries=first.entries, remaining=first.remaining - 1
    )
    assert second.remaining == 2
    assert second.owner == 5  # chain keeps the original owner


def test_replica_remove_defaults():
    removal = ReplicaRemovePayload(owner=5, subscription_id=77)
    assert removal.remaining == 1


def test_notification_carries_publish_time():
    event = SPACE.make_event(a1=3)
    notification = Notification(
        event=event, subscription_id=1, matched_at=4, published_at=12.5
    )
    batch = NotifyPayload(subscriber=9, notifications=(notification,))
    assert batch.notifications[0].published_at == 12.5
    assert batch.notifications[0].matched_at == 4
