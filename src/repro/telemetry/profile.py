"""Shard execution profiler & critical-path observatory.

The sharded kernel (:mod:`repro.sim.shard`) advances in conservative
barrier windows, and until now the only visibility into where its
wall-clock went was the blunt ``shard.barrier_stalls`` counter.  A
:class:`ShardProfiler` rides one sharded run coordinator-side and
records, per barrier round:

- each shard's **busy time** — the wall-clock its worker spent inside
  ``Simulator.run_before`` (measured worker-side, shipped back over the
  existing result pipe next to the outbox);
- the round's **wall time** — coordinator-measured, poll to last
  collected result, so ``busy + stall == wall`` holds *exactly* per
  shard per round (``stall`` is everything that is not busy: waiting
  for the laggard plus pipe/serialization overhead);
- the **window geometry** — start, lookahead width, events drained;
- the **shard-to-shard traffic matrix** — cross-shard messages routed
  by the coordinator, counted per (source shard, destination shard).

Every stall is attributed to the round's **laggard** — the shard with
the largest busy time, the one every other worker waited on at the
barrier.  From the per-round timeline :meth:`ShardProfiler.critical_path`
derives which shards dominate wall-clock and *why* (compute vs. barrier
wait vs. pipe I/O), a per-shard lookahead-utilization metric (how many
windows actually drained events, and how many events per window of
lookahead), and the **rebalance advisor**: workers additionally meter
one-hop sends per node (a :class:`~repro.telemetry.load.NodeSends`
subscribed to the ``send`` event of the worker's observer tap), and
:func:`suggest_cuts` turns that measured per-node traffic into
``partition_ring`` cut points that equalize *traffic* per arc instead
of node count — the direct input to the roadmap's traffic-based shard
balancing.

Profiling is pure observation: it never touches the simulated event
stream, so a profiled run's behavior fingerprint is bit-for-bit
identical to an unprofiled one (``tests/telemetry/test_profile.py``
keeps this honest), and with profiling off nothing of it is left in
the run: the send counter is simply not subscribed.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Sequence

#: Chrome-trace process id for the wall-clock shard tracks (the sim
#: itself renders under pid 1, see :mod:`repro.telemetry.export`).
_PROFILE_PID = 2


class RoundProfile:
    """One barrier round's execution record (see module docstring)."""

    __slots__ = ("index", "t0", "bound", "wall_s", "busy_s", "events", "sent")

    def __init__(
        self,
        index: int,
        t0: float,
        bound: float,
        wall_s: float,
        busy_s: Sequence[float],
        events: Sequence[int],
        sent: Sequence[Sequence[int]],
    ) -> None:
        self.index = index
        self.t0 = t0
        self.bound = bound
        self.wall_s = wall_s
        self.busy_s = tuple(busy_s)
        self.events = tuple(events)
        #: ``sent[src][dst]`` cross-shard messages this round.
        self.sent = tuple(tuple(row) for row in sent)

    @property
    def width(self) -> float:
        """The conservative window's lookahead width in sim seconds."""
        return self.bound - self.t0

    @property
    def laggard(self) -> int:
        """The shard every other worker waited on (max busy; ties low)."""
        return max(range(len(self.busy_s)), key=lambda s: (self.busy_s[s], -s))

    def stall_s(self, shard: int) -> float:
        """Wall-clock this shard's slot spent not executing events."""
        return max(0.0, self.wall_s - self.busy_s[shard])

    def as_dict(self) -> dict:
        return {
            "type": "profile",
            "scope": "round",
            "round": self.index,
            "t0": round(self.t0, 6),
            "width": round(self.width, 6),
            "wall_s": round(self.wall_s, 7),
            "busy_s": [round(b, 7) for b in self.busy_s],
            "events": list(self.events),
            "laggard": self.laggard,
            "sent": [list(row) for row in self.sent],
        }


@dataclasses.dataclass
class ShardCriticalPath:
    """Where one sharded run's wall-clock went, per shard.

    The accounting identity: for every shard,
    ``busy_s + barrier_wait_s + pipe_s == total_wall_s`` (and
    ``stall == barrier_wait + pipe``) — busy is worker-measured,
    barrier wait is the gap to the round's laggard, pipe is the
    residual coordinator overhead (result collection, outbox routing,
    polling), which is shared by construction since all shards span
    every round.
    """

    num_shards: int
    rounds: int
    total_wall_s: float
    finish_wall_s: float
    window_width_mean: float
    busy_s: list[float]
    barrier_wait_s: list[float]
    pipe_s: list[float]
    events: list[int]
    sent: list[int]
    received: list[int]
    laggard_rounds: list[int]
    zero_event_rounds: list[int]
    lookahead_utilization: list[float]
    events_per_window: list[float]

    @property
    def stall_s(self) -> list[float]:
        """Non-busy wall per shard (barrier wait + pipe overhead)."""
        return [
            w + p for w, p in zip(self.barrier_wait_s, self.pipe_s)
        ]

    @property
    def dominant_shard(self) -> int:
        """The shard whose compute dominates the run (max busy)."""
        if not self.busy_s:
            return 0
        return max(
            range(self.num_shards), key=lambda s: (self.busy_s[s], -s)
        )

    @property
    def dominant_phase(self) -> str:
        """What the run's wall-clock mostly paid for.

        ``compute`` when the mean shard was busy most of the time,
        ``barrier`` when waiting on laggards dominates, ``pipe`` when
        coordinator/IPC overhead does — the signal that decides between
        traffic rebalancing (barrier) and window widening (pipe).
        """
        if self.total_wall_s <= 0 or self.num_shards == 0:
            return "compute"
        busy = sum(self.busy_s) / self.num_shards
        wait = sum(self.barrier_wait_s) / self.num_shards
        pipe = sum(self.pipe_s) / self.num_shards
        top = max(busy, wait, pipe)
        if top == busy:
            return "compute"
        return "barrier" if top == wait else "pipe"

    def as_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "rounds": self.rounds,
            "total_wall_s": round(self.total_wall_s, 4),
            "finish_wall_s": round(self.finish_wall_s, 4),
            "window_width_mean": round(self.window_width_mean, 6),
            "busy_s": [round(v, 4) for v in self.busy_s],
            "barrier_wait_s": [round(v, 4) for v in self.barrier_wait_s],
            "pipe_s": [round(v, 4) for v in self.pipe_s],
            "stall_s": [round(v, 4) for v in self.stall_s],
            "events": list(self.events),
            "sent": list(self.sent),
            "received": list(self.received),
            "laggard_rounds": list(self.laggard_rounds),
            "zero_event_rounds": list(self.zero_event_rounds),
            "lookahead_utilization": [
                round(v, 4) for v in self.lookahead_utilization
            ],
            "events_per_window": [round(v, 3) for v in self.events_per_window],
            "dominant_shard": self.dominant_shard,
            "dominant_phase": self.dominant_phase,
        }


def suggest_cuts(
    node_ids: Sequence[int],
    node_loads: dict[int, float] | dict[int, int],
    num_shards: int,
) -> list[int]:
    """Traffic-weighted arc partition: K start offsets into the ring.

    Walks the ascending identifier ring accumulating each node's
    measured load and places a cut at the arc boundary whose prefix
    load lands nearest each ``total / K`` quantile, clamped so every
    arc keeps at least one node.  The result feeds straight into
    :func:`repro.sim.shard.partition_ring` via its ``cuts`` argument;
    with an empty or all-zero load map it degenerates to the default
    near-equal node-count split.

    Returns ``[0, c1, ..., c_{K-1}]`` — ``cuts[s]`` is the index (in
    ascending id order) of shard ``s``'s first node.
    """
    ordered = sorted(node_ids)
    n = len(ordered)
    if num_shards < 1 or num_shards > n:
        raise ValueError(
            f"cannot cut {n} nodes into {num_shards} arcs"
        )
    total = float(sum(node_loads.get(node, 0) for node in ordered))
    if total <= 0:
        return [n * shard // num_shards for shard in range(num_shards)]
    cumulative: list[float] = []
    running = 0.0
    for node in ordered:
        running += float(node_loads.get(node, 0))
        cumulative.append(running)
    cuts = [0]
    for shard in range(1, num_shards):
        target = total * shard / num_shards
        # Lowest boundary whose prefix reaches the quantile, stepping
        # back one when the previous prefix is strictly closer; clamp
        # leaves at least one node behind the cut and one per arc ahead.
        low = cuts[-1] + 1
        high = n - (num_shards - shard)
        cut = bisect_left(cumulative, target, lo=low - 1, hi=high) + 1
        if cut > 1 and cumulative[cut - 1] - target > target - cumulative[cut - 2]:
            cut -= 1
        cuts.append(min(max(cut, low), high))
    return cuts


class ShardProfiler:
    """Coordinator-side profile of one sharded run (see module doc)."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self.rounds: list[RoundProfile] = []
        #: Worker wall-clock inside the final run-to-horizon stretch.
        self.finish_busy_s: list[float] = [0.0] * num_shards
        self.finish_wall_s = 0.0
        #: Events each worker fired during the finish stretch — with
        #: the per-round events this conserves each worker's total.
        self.finish_events: list[int] = [0] * num_shards
        #: One-hop sends per node, merged from the workers' meters —
        #: the rebalance advisor's traffic measurement.
        self.node_loads: dict[int, int] = {}
        # Set by finalize() once the coordinator knows the outcome.
        self.node_ids: list[int] = []
        self.cuts: list[int] = []
        self.load_by_shard: list[int] = []

    # -- recording hooks (coordinator-side) ---------------------------------

    def on_round(
        self,
        t0: float,
        bound: float,
        wall_s: float,
        busy_s: Sequence[float],
        events: Sequence[int],
        sent: Sequence[Sequence[int]],
    ) -> None:
        """Record one completed barrier round."""
        self.rounds.append(
            RoundProfile(len(self.rounds), t0, bound, wall_s, busy_s,
                         events, sent)
        )

    def on_finish(
        self,
        busy_s: Sequence[float],
        wall_s: float,
        events: Sequence[int] | None = None,
    ) -> None:
        """Record the final run-out-to-horizon stretch."""
        self.finish_busy_s = list(busy_s)
        self.finish_wall_s = wall_s
        if events is not None:
            self.finish_events = list(events)

    def add_node_loads(self, sends: dict[int, int]) -> None:
        """Merge one worker's per-node send meter."""
        loads = self.node_loads
        for node, count in sends.items():
            loads[node] = loads.get(node, 0) + count

    def finalize(
        self,
        node_ids: Sequence[int],
        cuts: Sequence[int],
        load_by_shard: Sequence[int],
    ) -> None:
        """Attach the run's ring layout and per-shard load outcome."""
        self.node_ids = sorted(node_ids)
        self.cuts = list(cuts)
        self.load_by_shard = list(load_by_shard)

    # -- analysis -----------------------------------------------------------

    def total_wall_s(self) -> float:
        """Profiled wall-clock: every round plus the finish stretch."""
        return sum(r.wall_s for r in self.rounds) + self.finish_wall_s

    def critical_path(self) -> ShardCriticalPath:
        """Summarize the timeline (see :class:`ShardCriticalPath`)."""
        k = self.num_shards
        busy = [0.0] * k
        wait = [0.0] * k
        pipe = [0.0] * k
        events = [0] * k
        sent = [0] * k
        received = [0] * k
        laggard_rounds = [0] * k
        zero_rounds = [0] * k
        active = [0] * k
        width_total = 0.0
        for record in self.rounds:
            width_total += record.width
            peak = max(record.busy_s)
            overhead = max(0.0, record.wall_s - peak)
            laggard_rounds[record.laggard] += 1
            for shard in range(k):
                busy[shard] += record.busy_s[shard]
                wait[shard] += max(0.0, peak - record.busy_s[shard])
                pipe[shard] += overhead
                events[shard] += record.events[shard]
                row = record.sent[shard]
                sent[shard] += sum(row)
                if record.events[shard]:
                    active[shard] += 1
                else:
                    zero_rounds[shard] += 1
                for dst in range(k):
                    received[dst] += row[dst]
        # The finish stretch has no barrier: whatever is not busy is
        # waiting for the slowest worker to run out, plus pipe residue.
        if self.finish_wall_s > 0:
            peak = max(self.finish_busy_s) if self.finish_busy_s else 0.0
            overhead = max(0.0, self.finish_wall_s - peak)
            for shard in range(k):
                busy[shard] += self.finish_busy_s[shard]
                wait[shard] += max(0.0, peak - self.finish_busy_s[shard])
                pipe[shard] += overhead
        rounds = len(self.rounds)
        return ShardCriticalPath(
            num_shards=k,
            rounds=rounds,
            total_wall_s=self.total_wall_s(),
            finish_wall_s=self.finish_wall_s,
            window_width_mean=width_total / rounds if rounds else 0.0,
            busy_s=busy,
            barrier_wait_s=wait,
            pipe_s=pipe,
            events=events,
            sent=sent,
            received=received,
            laggard_rounds=laggard_rounds,
            zero_event_rounds=zero_rounds,
            lookahead_utilization=[
                active[s] / rounds if rounds else 0.0 for s in range(k)
            ],
            events_per_window=[
                events[s] / rounds if rounds else 0.0 for s in range(k)
            ],
        )

    def suggest_partition(self, num_shards: int | None = None) -> list[int]:
        """Traffic-weighted cut points from the measured node loads.

        Requires :meth:`finalize` (the coordinator calls it at the end
        of every profiled run).  Falls back to the per-shard load
        totals spread uniformly over each arc when per-node metering
        produced nothing (e.g. a zero-traffic run).
        """
        if not self.node_ids:
            raise ValueError("profiler not finalized: ring layout unknown")
        k = num_shards if num_shards is not None else self.num_shards
        loads: dict[int, float] = {
            node: float(count) for node, count in self.node_loads.items()
        }
        if not loads and self.load_by_shard and self.cuts:
            # Uniform-within-arc fallback from the per-shard totals.
            bounds = list(self.cuts) + [len(self.node_ids)]
            for shard, total in enumerate(self.load_by_shard):
                arc = self.node_ids[bounds[shard]:bounds[shard + 1]]
                share = total / len(arc) if arc else 0.0
                for node in arc:
                    loads[node] = share
        return suggest_cuts(self.node_ids, loads, k)

    def predicted_load_by_shard(self, cuts: Sequence[int]) -> list[float]:
        """Measured per-node load re-aggregated under candidate cuts."""
        bounds = list(cuts) + [len(self.node_ids)]
        totals: list[float] = []
        for shard in range(len(cuts)):
            arc = self.node_ids[bounds[shard]:bounds[shard + 1]]
            totals.append(float(sum(self.node_loads.get(n, 0) for n in arc)))
        return totals

    # -- export (JSONL format v4) -------------------------------------------

    def profile_records(self) -> list[dict]:
        """``profile`` records: run summary, advice, per shard, per round."""
        path = self.critical_path()
        records: list[dict] = [{"type": "profile", "scope": "run",
                                **path.as_dict()}]
        if self.node_ids:
            cuts = self.suggest_partition()
            records.append(
                {
                    "type": "profile",
                    "scope": "advice",
                    "cuts": cuts,
                    "cut_ids": [self.node_ids[c] for c in cuts],
                    "current_cuts": list(self.cuts),
                    "load_by_shard": list(self.load_by_shard),
                    "predicted_load_by_shard": [
                        round(v, 1) for v in self.predicted_load_by_shard(cuts)
                    ],
                    "metered_nodes": len(self.node_loads),
                }
            )
        for shard in range(self.num_shards):
            records.append(
                {
                    "type": "profile",
                    "scope": "shard",
                    "shard": shard,
                    "busy_s": round(path.busy_s[shard], 4),
                    "barrier_wait_s": round(path.barrier_wait_s[shard], 4),
                    "pipe_s": round(path.pipe_s[shard], 4),
                    "stall_s": round(path.stall_s[shard], 4),
                    "finish_busy_s": round(self.finish_busy_s[shard], 4),
                    "finish_events": self.finish_events[shard],
                    "events": path.events[shard],
                    "sent": path.sent[shard],
                    "received": path.received[shard],
                    "laggard_rounds": path.laggard_rounds[shard],
                    "zero_event_rounds": path.zero_event_rounds[shard],
                    "lookahead_utilization": round(
                        path.lookahead_utilization[shard], 4
                    ),
                    "events_per_window": round(
                        path.events_per_window[shard], 3
                    ),
                }
            )
        records.extend(record.as_dict() for record in self.rounds)
        return records

    # -- export (Chrome trace / Perfetto) -----------------------------------

    def chrome_events(self) -> list[dict]:
        """Wall-clock shard tracks for the Perfetto export.

        Rendered under a second trace process ("shard execution") on a
        *wall-clock* axis — cumulative profiled seconds — separate from
        the simulation's sim-time tracks: one track per shard carrying
        busy/stall slices per barrier round, plus coordinator counter
        tracks (window width, events drained, remote messages).
        """
        pid = _PROFILE_PID
        events: list[dict] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": "shard execution (wall clock)"}},
        ]
        for shard in range(self.num_shards):
            events.append(
                {"ph": "M", "pid": pid, "tid": shard, "name": "thread_name",
                 "args": {"name": f"shard {shard}"}}
            )
        offset = 0.0  # cumulative wall-clock, seconds
        for record in self.rounds:
            ts = offset * 1e6
            laggard = record.laggard
            for shard in range(self.num_shards):
                busy_us = record.busy_s[shard] * 1e6
                if busy_us >= 0.5:
                    events.append(
                        {"ph": "X", "pid": pid, "tid": shard, "ts": ts,
                         "dur": busy_us, "name": "busy", "cat": "shard",
                         "args": {"round": record.index,
                                  "events": record.events[shard],
                                  "t0": record.t0}}
                    )
                stall_us = record.stall_s(shard) * 1e6
                if stall_us >= 0.5:
                    events.append(
                        {"ph": "X", "pid": pid, "tid": shard,
                         "ts": ts + busy_us, "dur": stall_us,
                         "name": "stall", "cat": "shard",
                         "args": {"round": record.index,
                                  "laggard": laggard}}
                    )
            events.append(
                {"ph": "C", "pid": pid, "ts": ts, "name": "shard.window_width",
                 "args": {"value": record.width}}
            )
            events.append(
                {"ph": "C", "pid": pid, "ts": ts,
                 "name": "shard.window_events",
                 "args": {"value": sum(record.events)}}
            )
            events.append(
                {"ph": "C", "pid": pid, "ts": ts,
                 "name": "shard.window_remote",
                 "args": {"value": sum(sum(row) for row in record.sent)}}
            )
            offset += record.wall_s
        if self.finish_wall_s > 0:
            ts = offset * 1e6
            for shard in range(self.num_shards):
                busy_us = self.finish_busy_s[shard] * 1e6
                if busy_us >= 0.5:
                    events.append(
                        {"ph": "X", "pid": pid, "tid": shard, "ts": ts,
                         "dur": busy_us, "name": "finish", "cat": "shard",
                         "args": {}}
                    )
        return events


# -- report (repro report --mode shard) --------------------------------------

#: Width of the utilization bars in terminal cells.
_BAR_WIDTH = 32


def build_shard_report(dump) -> dict | None:
    """Shard-profile report dict from a loaded v4+ telemetry export
    (or a plain list of ``profile`` records, e.g. straight from
    :meth:`ShardProfiler.profile_records`).

    Returns None when the export carries no profile records (the run
    was serial, pre-v4, or profiled with ``--shard-profile`` off).
    """
    records = dump if isinstance(dump, list) else dump.profiles
    run = next(
        (r for r in records if r.get("scope") == "run"), None
    )
    if run is None:
        return None
    shards = sorted(
        (r for r in records if r.get("scope") == "shard"),
        key=lambda r: r["shard"],
    )
    advice = next(
        (r for r in records if r.get("scope") == "advice"), None
    )
    rounds = [r for r in records if r.get("scope") == "round"]
    return {
        "run": run,
        "shards": shards,
        "advice": advice,
        "round_records": len(rounds),
    }


def render_shard_report(report: dict, source: str = "") -> str:
    """Terminal view: utilization bars, stall attribution, advice."""
    run = report["run"]
    shards = report["shards"]
    title = "shard execution profile"
    if source:
        title += f" — {source}"
    wall = run["total_wall_s"] or 1.0
    lines = [
        title,
        "=" * len(title),
        "",
        f"{run['num_shards']} shard(s), {run['rounds']} barrier round(s) "
        f"({report['round_records']} exported), "
        f"wall {run['total_wall_s']:.2f}s "
        f"(finish stretch {run['finish_wall_s']:.2f}s), "
        f"mean window {run['window_width_mean'] * 1e3:.1f}ms sim",
        f"dominant: shard {run['dominant_shard']} — "
        f"{run['dominant_phase']}-bound",
        "",
        "per-shard utilization (busy share of profiled wall):",
    ]
    for record in shards:
        share = record["busy_s"] / wall
        filled = max(0, min(_BAR_WIDTH, round(_BAR_WIDTH * share)))
        bar = "█" * filled + "·" * (_BAR_WIDTH - filled)
        lines.append(
            f"  shard {record['shard']} {bar} {share:6.1%}  "
            f"busy={record['busy_s']:.2f}s wait={record['barrier_wait_s']:.2f}s "
            f"pipe={record['pipe_s']:.2f}s"
        )
    lines += [
        "",
        "stall attribution (laggard = shard the others waited on):",
        "  shard  laggard-rounds  zero-event-rounds  events  "
        "remote sent/recv  util  ev/window",
    ]
    for record in shards:
        lines.append(
            f"  {record['shard']:>5}  {record['laggard_rounds']:>14}  "
            f"{record['zero_event_rounds']:>17}  {record['events']:>6}  "
            f"{record['sent']:>7}/{record['received']:<8} "
            f"{record['lookahead_utilization']:>5.1%}  "
            f"{record['events_per_window']:>9.2f}"
        )
    advice = report.get("advice")
    lines.append("")
    if advice is not None:
        lines.append(
            f"rebalance advisor ({advice['metered_nodes']} metered nodes; "
            f"measured load_by_shard={advice['load_by_shard']}):"
        )
        lines.append(
            f"  suggested cuts (start offsets): {advice['cuts']}  "
            f"(node ids {advice['cut_ids']})"
        )
        lines.append(
            f"  predicted load_by_shard under suggestion: "
            f"{advice['predicted_load_by_shard']}"
        )
        lines.append(
            "  feed back via run_sharded(..., cuts=...) or "
            "repro run --shard-cuts"
        )
    else:
        lines.append("rebalance advisor: no per-node traffic metered")
    return "\n".join(lines)
