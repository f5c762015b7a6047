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
  unicast route).  Ten calls: ``transmit``, the recorder's
  ``on_send`` and its ``dict.get``, ``_wave_for``, ``schedule_at``,
  ``heappush``, ``heappop``, ``_drain``, ``dict.pop``, the handler.
- a **fan**: the ledger micro's shape, every message sent at ``t = 0``
  to one of 64 destinations, so one wave carries them all (an m-cast
  wave at its widest).  Five calls: ``transmit``, the recorder's
  ``on_send`` and its ``dict.get``, ``list.append``, the handler — the
  wave's own dozen are shared by all of them.

Both with only the recorder on the tap, which is every run's floor.
The fan is counted once more under ``Telemetry()`` — tracer and load
meter subscribed — where a message costs thirteen: the five, the
tracer's ``on_send`` with ``len``, ``Span``, ``list.append`` and the
two frames of ``kind.value``, the send counter's ``on_send`` and its
``dict.get``.  (PR 19's tree, which called both observers through
cached guards, counted fourteen for the same body.)

The budgets are those counts, plus ``ONE_OFF`` calls per run for what
does not scale with the messages: the profiled body, ``run`` itself,
and opening the request's trace on its first send (``begin_request``
and the trace's ``__init__``).  A fan's single wave costs six calls
more, paid for by its 64 buckets' first messages, which open their
bucket without a ``list.append``.  Observed, a fan adds four calls per
destination for its bucket's ``drain`` event: the load meter's
``on_drain``, two ``dict.get`` and a ``len``.

One budget above the network: what a CAN node adds to a unicast it
merely forwards — ``receive``, ``route_unicast``, ``_next_hop`` and the
zone jump's occasional ``bisect`` on the chain's ten.  A forwarder
stamps its zone from a memo and never asks its location cache, so the
count is the one taken before CAN had a location cache, 49 500, less
the one call each forward's kernel event no longer makes.
And what a CAN node pays to forward a 50-key m-cast once its pointer
table is current: a fixed six, seven a branch and two a copy, none a
key.
Chord's twin needs no constant: a Chord node that forwards an m-cast
is counted against the same node built without a cache, and one that
forwards a unicast costs no less than that node does.
"""

import cProfile
import gc
import random

from repro.overlay.api import CastMode, MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.sim import Simulator
from repro.telemetry import Telemetry
from tests.overlay.test_network_batching import make_message

MESSAGES = 10_000
CHAIN_BUDGET = 10
FAN_BUDGET = 5
OBSERVED_FAN_BUDGET = 13
ONE_OFF = 4
DESTINATIONS = 64
DRAIN_EVENT = 4
CAN_ROUTES = 500
CAN_FORWARD_CALLS = 46_000  # for the 7 x CAN_ROUTES extra forwards below
# One CAN m-cast forward of 50 contiguous keys split into two branches.
# The greedy grouping this replaced counted 105: a _next_hop per key.
CAN_MCAST_FORWARD_CALLS = 22


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


def test_can_mcast_forward_costs_one_bisect_per_branch():
    """22 calls: ``continue_mcast``, its set and list comprehensions,
    ``sorted`` and two ``len``; per branch a ``bisect_right``, a
    ``list.append``, the key-set comprehension and the network's four
    (``transmit``, ``on_send``, ``dict.get``, ``list.append``); and the
    one copy, ``forwarded_copy`` with its ``__init__`` — the envelope
    carries the other branch."""
    overlay = CanOverlay(Simulator(), KeySpace(13))
    overlay.build_ring(random.Random(7).sample(range(1 << 13), 200))
    ids = overlay.node_ids()
    node, origin = overlay.node(ids[0]), ids[100]
    start, length = overlay.zone_of(node.id)
    first = start + length + 1000
    keys = frozenset((first + i) % (1 << 13) for i in range(50))
    request_id = next_request_id()

    def forwarded() -> OverlayMessage:
        return OverlayMessage(
            kind=MessageKind.SUBSCRIPTION, payload=None,
            request_id=request_id, origin=origin, target_keys=keys,
            mode=CastMode.MCAST, hops=1, path=(origin, overlay.zone_of(origin)),
        )

    node.continue_mcast(forwarded())  # pointer table built, request open
    assert node._mcast[0] == overlay.zone_version
    messages = [forwarded() for _ in range(CAN_ROUTES)]

    def body() -> None:
        for message in messages:
            node.continue_mcast(message)

    calls = profiled_calls(body)
    # Exact: the one call that is not a forward is ``body`` itself.
    assert calls == CAN_MCAST_FORWARD_CALLS * CAN_ROUTES + 1, calls / CAN_ROUTES


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
                    forwarded(target_keys=frozenset(keys), mode=CastMode.MCAST)
                )
            assert node._table_journal is None  # never read

        return cast

    def unicast(node, times: int) -> None:
        for _ in range(times):
            node.route_unicast(forwarded(key=3000))

    # 700 and 900 share the finger 512; 3000 follows 2048, uncertified.
    for cast in (mcast([700, 900, 3000]), mcast([3000])):
        assert forwards(128, cast) == forwards(0, cast)
    assert forwards(0, unicast) <= forwards(128, unicast)
