"""Routing-geometry comparison: hops vs n across the three overlays.

Chord and the Pastry-style prefix router route in O(log n); CAN's
2-d greedy geometric routing costs O(sqrt(n)).  The crossover in this
table is the quantitative content of the paper's overlay-portability
footnote: the pub/sub layer is oblivious to the choice, but the choice
prices every message.
"""

import math
import random

from conftest import scaled

from repro.experiments.report import render_table
from repro.overlay.api import MessageKind, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(13)
NODE_COUNTS = (64, 128, 256, 512, 1024)


def mean_hops(overlay_cls, n, seed=5, messages=None):
    messages = messages or scaled(200)
    sim = Simulator()
    if overlay_cls is PastryOverlay:  # has no location cache to turn off
        overlay = PastryOverlay(sim, KS)
    else:
        overlay = overlay_cls(sim, KS, cache_capacity=0)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    hops = []
    overlay.set_deliver(lambda nid, m: hops.append(m.hops))
    rng = random.Random(seed + 1)
    nodes = overlay.node_ids()
    for _ in range(messages):
        src = rng.choice(nodes)
        key = rng.randrange(KS.size)
        message = OverlayMessage(
            kind=MessageKind.PUBLICATION, payload=None,
            request_id=next_request_id(), origin=src,
        )
        overlay.send(src, key, message)
    sim.run()
    return sum(hops) / len(hops)


def run_comparison():
    rows = []
    for n in NODE_COUNTS:
        rows.append(
            {
                "nodes": n,
                "chord": mean_hops(ChordOverlay, n),
                "pastry": mean_hops(PastryOverlay, n),
                "can": mean_hops(CanOverlay, n),
                "log2_n": math.log2(n),
                "sqrt_n": math.sqrt(n),
            }
        )
    return rows


def test_overlay_scaling(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["nodes", "chord", "pastry", "can", "log2(n)", "sqrt(n)"],
            [
                [r["nodes"], r["chord"], r["pastry"], r["can"],
                 r["log2_n"], r["sqrt_n"]]
                for r in rows
            ],
            title="Routing geometry — mean unicast hops vs n",
        )
    )
    first, last = rows[0], rows[-1]
    # Log-geometry overlays grow slowly...
    assert last["chord"] / first["chord"] < 2.5
    assert last["pastry"] / first["pastry"] < 2.5
    # ...while CAN tracks sqrt(n): a 16x population costs ~4x the hops.
    assert last["can"] / first["can"] > 2.0
    # And at 1024 nodes the geometric overlay is clearly the priciest.
    assert last["can"] > last["chord"]
    assert last["can"] > last["pastry"]
