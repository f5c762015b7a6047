"""repro — Content-Based Publish-Subscribe over Structured Overlay Networks.

A faithful, self-contained reproduction of Baldoni, Marchetti,
Virgillito and Vitenberg, *"Content-Based Publish-Subscribe over
Structured Overlay Networks"* (ICDCS 2005): a content-based pub/sub
layer with three stateless subscription/event-to-key mappings, running
over a discrete-event Chord simulator extended with the paper's
``m-cast`` one-to-many primitive, plus the notification
buffering/collecting and mapping-discretization optimizations and the
full Section 5 evaluation harness.

Quickstart::

    from repro import (
        Simulator, KeySpace, ChordOverlay, EventSpace, Subscription,
        PubSubSystem, make_mapping,
    )

    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(13))
    overlay.build_ring(range(0, 8192, 16))
    space = EventSpace.uniform(("price", "volume"), 1_000_001)
    mapping = make_mapping("selective-attribute", space, overlay.keyspace)
    system = PubSubSystem(sim, overlay, mapping)
    system.set_global_notify_handler(lambda node, ns: print(node, ns))
    system.subscribe(16, Subscription.build(space, price=(100, 200)))
    system.publish(4096, space.make_event(price=150, volume=7))
    sim.run()
"""

from repro.core import (
    Attribute,
    Constraint,
    Event,
    EventSpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Subscription,
)
from repro.core.mappings import (
    AttributeSplitMapping,
    Discretization,
    KeySpaceSplitMapping,
    SelectiveAttributeMapping,
    make_mapping,
)
from repro.errors import (
    ConfigurationError,
    DataModelError,
    MappingError,
    OverlayError,
    ReproError,
)
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.sim import PeriodicTimer, RandomStreams, Simulator
from repro.workload import Trace, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "Constraint",
    "Event",
    "EventSpace",
    "PubSubConfig",
    "PubSubSystem",
    "RoutingMode",
    "Subscription",
    "AttributeSplitMapping",
    "Discretization",
    "KeySpaceSplitMapping",
    "SelectiveAttributeMapping",
    "make_mapping",
    "ConfigurationError",
    "DataModelError",
    "MappingError",
    "OverlayError",
    "ReproError",
    "ChordOverlay",
    "KeySpace",
    "PeriodicTimer",
    "RandomStreams",
    "Simulator",
    "Trace",
    "WorkloadSpec",
    "__version__",
]
