#!/usr/bin/env python3
"""Stock-ticker feed: notification buffering + collecting (Section 4.3.2).

A market-data stream is the paper's motivating case for buffering:
consecutive events exhibit temporal locality (a ticker's price moves in
small steps), so they keep matching the same subscriptions and land on
the same rendezvous nodes.  This example runs the same stream twice —
once with per-match immediate notifications (``notification="direct"``),
once with buffering and collecting (``notification="collected"``) — and
compares the notification traffic.

Run:
    python examples/stock_ticker.py
"""

import random

from repro import (
    ChordOverlay,
    EventSpace,
    KeySpace,
    PubSubConfig,
    PubSubSystem,
    RoutingMode,
    Simulator,
    Subscription,
    make_mapping,
)
from repro.core.events import hash_string_value
from repro.overlay.api import MessageKind

ATTR_MAX = 1_000_000
SYMBOLS = ["ACME", "GLOBEX", "INITECH", "HOOLI", "PIEDPIPER"]


def build_market(notification: str):
    sim = Simulator()
    keyspace = KeySpace(13)
    overlay = ChordOverlay(sim, keyspace, cache_capacity=0)
    overlay.build_ring(random.Random(11).sample(range(keyspace.size), 400))
    space = EventSpace.uniform(("symbol", "price", "volume", "venue"), ATTR_MAX + 1)
    mapping = make_mapping("selective-attribute", space, keyspace)
    config = PubSubConfig(
        routing=RoutingMode.MCAST,
        notification=notification,
        buffer_period=5.0,
    )
    return sim, overlay, space, PubSubSystem(sim, overlay, mapping, config)


def symbol_value(name: str) -> int:
    """Reduce a ticker symbol to a numeric attribute (paper footnote 2)."""
    return hash_string_value(name, ATTR_MAX + 1)


def run_stream(notification: str) -> dict:
    sim, overlay, space, system = build_market(notification)
    nodes = overlay.node_ids()
    rng = random.Random(23)

    delivered = []
    system.set_global_notify_handler(
        lambda nid, ns: delivered.extend((nid, n) for n in ns)
    )

    # Traders watch a symbol within a price band (equality constraint on
    # the symbol: exactly the "selective attribute" of Mapping 3).
    for trader in range(25):
        symbol = rng.choice(SYMBOLS)
        center = rng.randint(100_000, 900_000)
        sigma = Subscription.build(
            space,
            symbol=symbol_value(symbol),
            price=(center - 60_000, center + 60_000),
            volume=(0, ATTR_MAX),
            venue=(0, ATTR_MAX),
        )
        system.subscribe(rng.choice(nodes), sigma)
    # run_until, not run(): with buffering on, periodic flush timers
    # keep the event queue non-empty forever.
    sim.run_until(sim.now + 10.0)

    # The feed: each symbol's price performs a small random walk; ticks
    # arrive every 500 ms for 500 simulated seconds.
    prices = {s: rng.randint(200_000, 800_000) for s in SYMBOLS}
    t = sim.now
    for _ in range(1000):
        t += 0.5
        symbol = rng.choice(SYMBOLS)
        prices[symbol] = min(
            ATTR_MAX, max(0, prices[symbol] + rng.randint(-3000, 3000))
        )
        event = space.make_event(
            symbol=symbol_value(symbol),
            price=prices[symbol],
            volume=rng.randint(0, ATTR_MAX),
            venue=rng.randrange(ATTR_MAX),
        )
        sim.schedule_at(t, system.publish, rng.choice(nodes), event)
    sim.run_until(t + 60.0)

    messages = system.recorder.messages
    return {
        "matches_delivered": len(delivered),
        "notification_msgs": messages.total_sends(MessageKind.NOTIFICATION),
        "collect_msgs": messages.total_sends(MessageKind.COLLECT),
        "batches": system.recorder.notification_batches,
    }


def main() -> None:
    immediate = run_stream("direct")
    buffered = run_stream("collected")

    print("1000 ticks, 25 traders, 400 nodes\n")
    print(f"{'':28}{'immediate':>12}{'buffered+collect':>18}")
    for key, label in [
        ("matches_delivered", "matches delivered"),
        ("batches", "notification batches"),
        ("notification_msgs", "notification one-hop msgs"),
        ("collect_msgs", "collect one-hop msgs"),
    ]:
        print(f"{label:28}{immediate[key]:>12}{buffered[key]:>18}")
    total_imm = immediate["notification_msgs"] + immediate["collect_msgs"]
    total_buf = buffered["notification_msgs"] + buffered["collect_msgs"]
    if total_imm:
        saving = 100 * (1 - total_buf / total_imm)
        print(f"\nnotification traffic saved by buffering+collecting: {saving:.0f}%")


if __name__ == "__main__":
    main()
