"""A frame budget for the one layer every message crosses.

Every cost the paper states is a count of one-hop messages, so what a
one-hop message costs between ``Network.transmit`` and its receiver's
handler is the simulator's unit price.  The ledger measures it
(``overlay.network.micro.calls_per_msg``) but gates nothing; this test
counts the same thing under ``cProfile`` — every Python frame and every
C call, exactly, no clock — and fails when a change puts a forwarding
frame back.

Two shapes, the two ends of how many messages share an arrival instant:

- a **chain**: each handler transmits the next message, so every
  message has an instant, a wave and a kernel event of its own (a
  unicast route).  Eight calls: ``transmit``, ``_wave_for``,
  ``schedule_at``, ``heappush``, ``heappop``, ``_drain``, ``dict.pop``,
  the handler.
- a **fan**: the ledger micro's shape, every message sent at ``t = 0``
  to one of 64 destinations, so one wave carries them all (an m-cast
  wave at its widest).  Three calls: ``transmit``, ``list.append``, the
  handler — the wave's own dozen are shared by all of them.

Both with only the recorder on the tap, which is every run's floor:
``transmit`` counts the send into the recorder's dicts inline, with no
call.  The fan is counted once more under ``Telemetry()`` — tracer and
load meter subscribed — where a message costs eleven: the three, the
tracer's ``on_send`` with ``len``, ``Span``, ``list.append`` and the
two frames of ``kind.value``, the send counter's ``on_send`` and its
``dict.get``.  (While the recorder was a ``send`` subscriber the three
were five and the eleven thirteen; calling both observers through
cached guards instead of the tap counted fourteen.)

The budgets are those counts, plus ``ONE_OFF`` calls per run for what
does not scale with the messages: the profiled body, ``run`` itself,
and opening the request's trace on its first send (``begin_request``
and the trace's ``__init__``).  A fan's single wave costs six calls
more, paid for by its 64 buckets' first messages, which open their
bucket without a ``list.append``.  Observed, a fan adds four calls per
destination for its bucket's ``drain`` event: the load meter's
``on_drain``, two ``dict.get`` and a ``len``.

Above the network, the receiving end and the pub/sub layer:

- what a delivery costs from ``do_deliver`` to its payload handler: a
  publication reaching a node whose store is empty, exactly;
- what Mapping 3 spends hashing one event's d = 4 attributes: no frame
  per attribute, exactly (keyed on the Python minor version, whose
  comprehensions differ).

One budget above the network: what a CAN node adds to a unicast it
merely forwards — ``receive``, ``route_unicast`` and ``_next_hop`` on
the chain's eight.  A forwarder reads its zone off the overlay's
geometry entry and never asks its location cache, so the count is the
one taken before CAN had a location cache, 49 500, less the one call
each forward's kernel event no longer makes and the two the recorder's
``on_send`` and its ``dict.get`` made.
And what a node pays to forward a 50-key m-cast in two branches: the
Fig. 4 step that Chord and CAN share, with each one's pointer rule,
exactly (keyed on the Python minor version, as a comprehension would
differ).  The targets travel as key runs, so no call is made per key
or per run.  Beside Chord's exact count, a Chord
node that forwards an m-cast is counted against the same node built
without a cache, and one that forwards a unicast costs no less than
that node does.
"""

import cProfile
import gc
import random
import sys

import pytest

from repro.core import PubSubSystem
from repro.core.events import EventSpace
from repro.core.mappings import make_mapping
from repro.core.payloads import PublishPayload
from repro.overlay.api import MessageKind, OverlayMessage, RoutingMode, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeyRuns, KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from repro.telemetry import Telemetry
from tests.overlay.test_network_batching import make_message

MESSAGES = 10_000
CHAIN_BUDGET = 8
FAN_BUDGET = 3
OBSERVED_FAN_BUDGET = 11
ONE_OFF = 4
DESTINATIONS = 64
DRAIN_EVENT = 4
CAN_ROUTES = 500
CAN_FORWARD_CALLS = 39_000  # for the 7 x CAN_ROUTES extra forwards below
# One m-cast forward of 50 contiguous keys (one run) split into two
# branches, by Python minor version.  The step has no comprehension, so
# 3.12's entries equal 3.11's; they are derived by that rule, not
# measured.  For CAN, the greedy grouping this replaced counted 105 on
# 3.11: a _next_hop per key.  While the recorder was a ``send``
# subscriber, 3.11 read 22; while the node held a memoized pointer
# table, 18; while CAN wrote its own step, with a set comprehension for
# the keys it owns, a sort for a single key and a ``list.append`` per
# group, 17.  Chord's own step read 19: one frame fewer than the shared
# step and its rule.  While the targets were a frozenset, the step
# sorted a distance list comprehension and built each branch's key set
# with another: 15 for CAN and 20 for Chord (12 and 17 on 3.12).
CAN_MCAST_FORWARD_CALLS = {(3, 11): 10, (3, 12): 10}
CHORD_MCAST_FORWARD_CALLS = {(3, 11): 15, (3, 12): 15}
DELIVERIES = 500
# One publication delivered at a node with an empty store, from
# ``do_deliver`` to the handler's return; 3.11 and 3.12 agree.  With
# the recorder a ``deliver`` subscriber and an ``isinstance`` chain in
# front of the handler it read 15 (a publication is the chain's third
# test).
DELIVERY_CALLS = 9
EVENTS = 500
# Mapping 3's event_keys at d = 4, by Python minor version.  With a
# generator and a ``_hash_value`` frame per attribute (and its
# ``quantize`` and ``_domain_size``) 3.11 read 18.  While EK(e) was a
# frozenset, 2 (1 on 3.12): the cast sorted it into runs instead.  With
# a list comprehension and ``KeyRuns.from_keys`` building the runs, 4
# (3 on 3.12).
EVENT_KEYS_CALLS = {(3, 11): 2, (3, 12): 2}


def minor_budget(budgets: dict, what: str) -> int:
    budget = budgets.get(sys.version_info[:2])
    if budget is None:
        pytest.skip(f"no {what} budget measured for Python {sys.version_info[:2]}")
    return budget


def profiled_calls(body) -> int:
    profiler = cProfile.Profile()
    gc.disable()  # a collection's callbacks (hypothesis adds one) count
    try:
        profiler.enable()
        body()
        profiler.disable()
    finally:
        gc.enable()
    # The profiler's own disable() is the one call not the body's.
    return sum(entry.callcount for entry in profiler.getstats()) - 1


def test_chain_of_messages_one_per_instant():
    sim = Simulator()
    network = Network(sim)
    message = make_message()
    left = [MESSAGES]

    def forward(received) -> None:
        left[0] -= 1
        if left[0]:
            network.transmit(0, 0, received)

    network.register(0, forward)

    def body() -> None:
        network.transmit(0, 0, message)
        sim.run()

    calls = profiled_calls(body)
    assert calls <= CHAIN_BUDGET * MESSAGES + ONE_OFF, calls / MESSAGES
    assert left == [0]
    assert sim.events_processed == MESSAGES


def fan_calls(network: Network, sim: Simulator) -> int:
    message = make_message()
    received = [0]

    def count(message) -> None:
        received[0] += 1

    for node in range(DESTINATIONS):
        network.register(node, count)

    def body() -> None:
        for i in range(MESSAGES):
            network.transmit(i & 63, (i * 7) & 63, message)
        sim.run()

    calls = profiled_calls(body)
    assert received == [MESSAGES]
    assert sim.events_processed == 1
    return calls


def test_fan_of_messages_sharing_one_instant():
    sim = Simulator()
    calls = fan_calls(Network(sim), sim)
    assert calls <= FAN_BUDGET * MESSAGES + ONE_OFF, calls / MESSAGES


def test_observed_fan_of_messages_sharing_one_instant():
    sim = Simulator()
    calls = fan_calls(Network(sim, telemetry=Telemetry()), sim)
    one_off = ONE_OFF + DRAIN_EVENT * DESTINATIONS
    assert calls <= OBSERVED_FAN_BUDGET * MESSAGES + one_off, calls / MESSAGES


def test_can_unicast_forward_costs_what_it_did_without_a_cache():
    sim = Simulator()
    overlay = CanOverlay(sim, KeySpace(13))
    overlay.build_ring(random.Random(7).sample(range(1 << 13), 200))
    hops = {}
    overlay.set_deliver(lambda node, message: hops.__setitem__(node, message.hops))
    source = overlay.node_ids()[0]

    def send(target: int) -> None:
        message = OverlayMessage(
            kind=MessageKind.NOTIFICATION, payload=None,
            request_id=next_request_id(), origin=source,
        )
        overlay.send(source, target, message)

    # Every node delivers once: tables are built, and every forwarder
    # holds a cached entry (the source's) it could ask.
    for target in overlay.node_ids():
        send(target)
    sim.run()
    near = min((node for node in hops if hops[node] >= 2), key=hops.get)
    far = max(hops, key=hops.get)
    assert (hops[near], hops[far]) == (2, 9)

    def routes(target: int) -> int:
        def body() -> None:
            for _ in range(CAN_ROUTES):
                send(target)
                sim.run()

        return profiled_calls(body)

    # Same entry, same delivery, seven more forwards a route.
    assert routes(far) - routes(near) <= CAN_FORWARD_CALLS + ONE_OFF


def mcast_forward_calls(overlay, stamp_of) -> int:
    """Calls to forward a 50-key m-cast ``CAN_ROUTES`` times at the
    first node of a 200-node ring, its keys contiguous from 1000 past
    the node's span: two branches, one a copy."""
    overlay.build_ring(random.Random(7).sample(range(1 << 13), 200))
    ids = overlay.node_ids()
    node, origin = overlay.node(ids[0]), ids[100]
    start, length = node.owned_span()
    first = start + length + 1000
    keys = KeyRuns.from_keys((first + i) % (1 << 13) for i in range(50))
    request_id = next_request_id()

    def forwarded() -> OverlayMessage:
        return OverlayMessage(
            kind=MessageKind.SUBSCRIPTION, payload=None,
            request_id=request_id, origin=origin, target_keys=keys,
            mode=RoutingMode.MCAST, hops=1, path=(origin, stamp_of(origin)),
        )

    node.continue_mcast(forwarded())  # request open
    messages = [forwarded() for _ in range(CAN_ROUTES)]
    sends = overlay.recorder.messages.total_sends()

    def body() -> None:
        for message in messages:
            node.continue_mcast(message)

    calls = profiled_calls(body)
    assert overlay.recorder.messages.total_sends() - sends == 2 * CAN_ROUTES
    # Exact: the one call that is not a forward is ``body`` itself.
    return calls - 1


def test_can_mcast_forward_costs_one_bit_length_per_branch():
    """10 calls: the shared step ``continue_mcast`` and CAN's rule
    ``mcast_pointers``; per branch an ``int.bit_length`` (the pointer is
    read off the key→owner table from link ``j`` on) and the network's
    two (``transmit``, ``list.append``); and the one copy, ``_prepared``
    with its ``__init__`` — the envelope carries the other branch.
    Turning the targets (one run) into distance runs and cutting the
    branches' runs out of them costs no call, and neither do the keys
    the node owns: none lies before its zone's end.  Targets of several
    runs add one ``len``."""
    budget = minor_budget(CAN_MCAST_FORWARD_CALLS, "CAN m-cast forward")
    overlay = CanOverlay(Simulator(), KeySpace(13))
    calls = mcast_forward_calls(overlay, lambda origin: overlay.zone_of(origin))
    assert calls == budget * CAN_ROUTES, calls / CAN_ROUTES


def test_chord_mcast_forward_costs_two_bisects_per_branch():
    """15 calls: CAN's ten, with Chord's rule in place of
    CAN's; the rule adds ``len(ring)`` and, per branch, two
    ``bisect_left`` on the ring: slot ``j``'s owner, which precedes the
    group's nearest key here, and slot ``j + 1``'s, which ends the
    group.  A forwarder reads no cache."""
    budget = minor_budget(CHORD_MCAST_FORWARD_CALLS, "Chord m-cast forward")
    overlay = ChordOverlay(Simulator(), KeySpace(13))
    calls = mcast_forward_calls(overlay, lambda origin: overlay._pred[origin])
    assert calls == budget * CAN_ROUTES, calls / CAN_ROUTES


def test_a_delivery_reaches_its_payload_handler_in_one_dispatch():
    """9 calls: ``do_deliver`` and the ``list.append`` that charges the
    delivery to its request; the system's upcall and its ``dict.get``;
    the node's ``on_deliver`` (one dict read, no call) and the handler,
    ``_handle_publication``, with its ``len``; the store's ``match``
    and ``_scan``."""
    sim = Simulator()
    overlay = ChordOverlay(sim, KeySpace(13))
    overlay.build_ring(range(0, 1 << 13, 64))
    space = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000)
    system = PubSubSystem(
        sim, overlay, make_mapping("selective-attribute", space, overlay.keyspace)
    )
    node = overlay.node(64)
    payload = PublishPayload(
        event=space.make_event(a1=1, a2=2, a3=3, a4=4),
        publisher=0,
        published_at=0.0,
    )
    stats = overlay.recorder.messages
    messages = []
    for _ in range(DELIVERIES + 1):
        message = OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=payload,
            request_id=next_request_id(), origin=0, hops=2,
        )
        stats.begin_request(message.kind, message.request_id, 0.0)
        messages.append(message)
    overlay.do_deliver(node, messages.pop())  # the dedup window made

    def body() -> None:
        for message in messages:
            overlay.do_deliver(node, message)

    calls = profiled_calls(body)
    assert calls == DELIVERY_CALLS * DELIVERIES + 1, calls / DELIVERIES
    assert len(system.node(64).store) == 0
    assert all(stats.traces[m.request_id].deliveries == [(64, 0.0)] for m in messages)


def test_selective_attribute_event_keys_make_no_frame_per_attribute():
    """2 calls for d = 4: ``event_keys`` and its ``list.sort`` (``zip``
    and ``KeyRuns`` are types: calling one is no profiled call; the keys
    are gathered with ``+=``, no ``append`` call, and no comprehension
    frame, so 3.12 reads the same).  The sort into runs is the one the
    cast made before EK(e) was runs (``_target_runs``)."""
    budget = minor_budget(EVENT_KEYS_CALLS, "event_keys")
    space = EventSpace.uniform(("a1", "a2", "a3", "a4"), 1_000_001)
    mapping = make_mapping("selective-attribute", space, KeySpace(13))
    rng = random.Random(3)
    events = [
        space.make_event(**{a.name: rng.randrange(1_000_001) for a in space.attributes})
        for _ in range(EVENTS)
    ]

    def body() -> None:
        for event in events:
            mapping.event_keys(event)

    calls = profiled_calls(body)
    assert calls == budget * EVENTS + 1, calls / EVENTS


def test_chord_forwards_cost_what_they_do_without_a_cache():
    """Only the node that addresses the keys reads its location cache.
    An m-cast forwarder holding a full cache, touches it has not folded
    and no cache view pays exactly the calls of a node built with
    ``cache_capacity=0`` — multi-key and single-key: the overshoot test
    in front of both is arithmetic.  A unicast forwarder whose finger
    slot does not certify the key reads its cache view, so a node built
    without a cache pays no more than it does."""
    ring = list(range(0, 1 << 13, 64))

    def forwards(cache: int, cast) -> int:
        overlay = ChordOverlay(Simulator(), KeySpace(13), cache_capacity=cache)
        overlay.build_ring(ring)
        node = overlay.node(0)
        node.learn(ring)  # 127 bare pointers: the cache is full
        cast(node, 1)  # the unicast's cache view current
        return profiled_calls(lambda: cast(node, 500))

    def forwarded(**addressed) -> OverlayMessage:
        return OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=None,
            request_id=next_request_id(), origin=8128, hops=1,
            path=(8128, 8064), **addressed,
        )

    def mcast(keys):
        def cast(node, times: int) -> None:
            for _ in range(times):
                node._cache.log += (64, 0)  # a touch a reader would fold
                node.continue_mcast(
                    forwarded(
                        target_keys=KeyRuns.from_keys(keys), mode=RoutingMode.MCAST
                    )
                )
            assert node._cache.journal is None  # never read

        return cast

    def unicast(node, times: int) -> None:
        for _ in range(times):
            node.route_unicast(forwarded(key=3000))

    # 700 and 900 share the finger 512; 3000 follows 2048, uncertified.
    for cast in (mcast([700, 900, 3000]), mcast([3000])):
        assert forwards(128, cast) == forwards(0, cast)
    assert forwards(0, unicast) <= forwards(128, unicast)
