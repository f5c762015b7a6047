"""The content-based publish/subscribe layer (the paper's contribution).

This package implements the *CB-pub/sub* stratum of Fig. 2: it maps the
rich event/subscription language onto overlay keys (the ``ak-mapping``
module, :mod:`repro.core.mappings`), forwards subscriptions and events
to their rendezvous keys, stores subscriptions and matches events at
rendezvous nodes (:mod:`repro.core.rendezvous`), sends notifications
back to subscribers, and manages state movement across node joins,
departures and crashes (:mod:`repro.core.replication`).

Public entry point: :class:`repro.core.system.PubSubSystem`.
"""

from repro.core.client import Disjunction, PubSubClient
from repro.core.events import Attribute, Event, EventSpace
from repro.core.subscriptions import Constraint, Subscription
from repro.core.system import PubSubConfig, PubSubSystem
from repro.overlay.api import RoutingMode

__all__ = [
    "Attribute",
    "Event",
    "EventSpace",
    "Constraint",
    "Subscription",
    "Disjunction",
    "PubSubClient",
    "PubSubConfig",
    "PubSubSystem",
    "RoutingMode",
]
