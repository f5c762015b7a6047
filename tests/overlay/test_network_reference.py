"""The wave network, held to a one-event-per-bucket reference.

``Network`` keeps one wave — ``{dst -> [messages]}`` — and one kernel
event per arrival *instant*.  The reference below is the engine it
replaced, written the plain way: one kernel event per ``(dst, arrival)``
bucket, so the kernel's own ``(time, seq)`` order sorts the buckets by
arrival and then by first send, and the handler is re-fetched before
every message.  Driven by the same seeded script — bursts of sends,
handlers that forward, unregister (themselves, or a destination later
in the same instant) and re-register nodes mid-bucket — the two must
log the same ``(time, dst, tag)`` delivery sequence and agree on
``dropped`` / ``lost`` / ``in_flight`` after every burst, under the
paper's fixed delay, ``UniformDelay``, a loss model, and zero delay.

Two things the reference does *not* share, each pinned by a named test
and neither reached by any workload:

- a wave fires at the ``(time, seq)`` of its first send, so an
  unrelated kernel event scheduled for the wave's timestamp between two
  of its first sends fires after the whole wave, not between buckets;
- a wave is detached before it is drained, so a *zero-delay* send made
  by a handler never joins a still-pending bucket of the instant being
  drained — it lands after the whole wave, which is where a
  one-event-per-message engine puts it (the reference's buckets, like
  the parent's, let it overtake).  The zero-delay scripts therefore
  only echo to the receiving node itself, whose bucket both engines
  have already detached.
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.network import FixedDelay, Network, UniformDelay
from repro.sim import Simulator
from tests.overlay.test_network_batching import make_message

NODES = range(6)


class ReferenceNetwork:
    """One kernel event per ``(dst, arrival)`` bucket."""

    def __init__(self, sim, delay, loss_rate=0.0, loss_rng=None):
        self.sim, self.delay = sim, delay
        self.loss_rate, self.loss_rng = loss_rate, loss_rng
        self.handlers, self.buckets = {}, {}
        self.dropped = self.lost = 0

    def register(self, node_id, receive):
        self.handlers[node_id] = receive

    def unregister(self, node_id):
        self.handlers.pop(node_id, None)

    @property
    def in_flight(self):
        return sum(len(bucket) for bucket in self.buckets.values())

    def transmit(self, src, dst, message):
        if self.loss_rate and self.loss_rng.random() < self.loss_rate:
            self.lost += 1
            return
        key = (dst, self.sim.now + self.delay.sample(src, dst))
        if key not in self.buckets:
            self.buckets[key] = []
            self.sim.schedule_at(key[1], self.drain, key)
        self.buckets[key].append(message)

    def drain(self, key):
        for message in self.buckets.pop(key):
            handler = self.handlers.get(key[0])
            if handler is None:
                self.dropped += 1
            else:
                handler(message)


MODES = {
    "fixed": lambda seed: dict(delay=FixedDelay(0.05)),
    "uniform": lambda seed: dict(delay=UniformDelay(0.01, 0.2, random.Random(seed))),
    "lossy": lambda seed: dict(
        delay=FixedDelay(0.05), loss_rate=0.3, loss_rng=random.Random(seed)
    ),
    "zero": lambda seed: dict(delay=FixedDelay(0.0)),
}


def build(kind, mode, seed):
    sim = Simulator()
    options = MODES[mode](seed)
    if kind == "reference":
        return sim, ReferenceNetwork(sim, **options)
    return sim, Network(sim, options.pop("delay"), **options)


def make_script(seed: int, echo_only: bool) -> list:
    """Rounds of ``(clock advance, [(src, dst, program), ...])``.

    A program is ``(tag, actions)``; the handler that receives it logs
    the tag and performs the actions: ``("send", dst, program)`` (dst
    ``None``: the receiving node itself), ``("unregister", node)``,
    ``("register", node)``.
    """
    rng = random.Random(seed)
    tags = iter(range(1, 1_000_000))

    def program(depth: int):
        actions = []
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3)) if depth else 0):
            roll = rng.random()
            if roll < 0.5:
                dst = None if echo_only else rng.choice(NODES)
                actions.append(("send", dst, program(depth - 1)))
            elif roll < 0.7:
                actions.append(("unregister", rng.choice(NODES)))
            else:
                actions.append(("register", rng.choice(NODES)))
        return next(tags), tuple(actions)

    return [
        (
            rng.choice((0.0, 0.01, 0.05, 0.05, 0.1)),
            [
                (rng.choice(NODES), rng.choice(NODES), program(3))
                for _ in range(rng.randint(1, 6))
            ],
        )
        for _ in range(30)
    ]


def play(kind: str, mode: str, seed: int, script: list):
    """Run ``script``; the delivery log and the counters after each round."""
    sim, net = build(kind, mode, seed)
    log: list[tuple[float, int, int]] = []
    counters: list[tuple[int, int, int]] = []

    def send(src, dst, program):
        net.transmit(src, dst, make_message(request_id=program[0], payload=program))

    def handler_of(node):
        def receive(message):
            tag, actions = message.payload
            log.append((sim.now, node, tag))
            for action, target, *rest in actions:
                if action == "send":
                    send(node, node if target is None else target, rest[0])
                elif action == "unregister":
                    net.unregister(target)
                else:
                    net.unregister(target)  # re-registration: a fresh handler
                    net.register(target, handler_of(target))

        return receive

    for node in NODES:
        net.register(node, handler_of(node))
    for advance, burst in script:
        sim.run_until(sim.now + advance)
        for src, dst, program in burst:
            send(src, dst, program)
        counters.append((net.dropped, net.lost, net.in_flight))
    sim.run()
    counters.append((net.dropped, net.lost, net.in_flight))
    return log, counters


@pytest.mark.parametrize("mode", MODES)
def test_network_equals_one_event_per_bucket_reference(mode):
    delivered = dropped = lost = 0
    for seed in range(40):
        script = make_script(seed, echo_only=mode == "zero")
        log, counters = play("network", mode, seed, script)
        assert (log, counters) == play("reference", mode, seed, script), seed
        delivered += len(log)
        dropped += counters[-1][0]
        lost += counters[-1][1]
        assert counters[-1][2] == 0
    # The scripts reach what they are for.
    assert delivered > 1500 and dropped > 100
    assert (lost > 100) == (mode == "lossy")


# -- the named cases ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["network", "reference"])
def test_buckets_drain_in_first_send_order(kind):
    (sim, net), log = build(kind, "fixed", 0), []
    for node in "xy":
        net.register(node, lambda m: log.append(m.payload))
    net.transmit(0, "x", make_message(payload="A"))
    net.transmit(0, "y", make_message(payload="B"))
    net.transmit(0, "x", make_message(payload="C"))
    sim.run()
    assert log == ["A", "C", "B"]


@pytest.mark.parametrize(
    "kind, expected",
    [("network", ["A", "B", "event"]), ("reference", ["A", "event", "B"])],
    ids=["network", "reference"],
)
def test_same_timestamp_event_between_first_sends_fires_after_the_wave(kind, expected):
    # The one edge against other kernel events: the wave carries the
    # seq of its first send, so it fires whole before an event scheduled
    # later for the same timestamp — even though y's bucket was first
    # sent into after that event was scheduled.
    (sim, net), log = build(kind, "fixed", 0), []
    for node in "xy":
        net.register(node, lambda m: log.append(m.payload))
    net.transmit(0, "x", make_message(payload="A"))
    sim.schedule_at(0.05, log.append, "event")
    net.transmit(0, "y", make_message(payload="B"))
    sim.run()
    assert log == expected


@pytest.mark.parametrize(
    "kind, expected",
    [("network", ["A", "B", "C", "Z"]), ("reference", ["A", "B", "Z", "C"])],
    ids=["network", "reference"],
)
def test_zero_delay_send_from_a_handler_lands_after_the_wave(kind, expected):
    # Sent while the instant is being drained, Z happens after A, B and
    # C were sent: a one-event-per-message engine delivers it last.
    (sim, net), log = build(kind, "zero", 0), []

    def relay(m):
        log.append(m.payload)
        if m.payload == "A":
            net.transmit("x", "y", make_message(payload="Z"))

    for node in "xyz":
        net.register(node, relay)
    net.transmit(0, "x", make_message(payload="A"))
    net.transmit(0, "y", make_message(payload="B"))
    net.transmit(0, "z", make_message(payload="C"))
    sim.run()
    assert log == expected
