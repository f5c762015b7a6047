#!/usr/bin/env python3
"""Performance ledger: five seeded workloads, end to end and per layer.

    python3 benchmarks/ledger/run.py [--seed N]

generates every workload from the seed, runs each in fresh processes
(two untraced passes in round-robin, then one under cProfile), checks
deliveries against an independent oracle, requires the passes to agree
exactly on every simulated metric and on the behaviour fingerprint, and
prints every end-to-end and per-layer metric by name with its unit.
See README.md in this directory for what each number means.

    --workload NAME   only this workload (repeatable)
    --only-micro      only the micro-drivers and the paper-bound rows
    --list            print every workload and metric name and exit
    --smoke           everything at a tenth of the size, in-process
    --aa              measure the end-to-end metrics twice and compare
    --out FILE        also write the full result as JSON

The benchmark driver calls

    run.py --workload NAME --seed N --seconds S --trace 0|1

which measures that one workload for at least S seconds of timed region
and prints, as the last line, one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from catalog import END_TO_END, PER_LAYER, UNITS, benchmark_json  # noqa: E402
from layers import LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Observer legs run steady-chord at this share of its size.
OBSERVER_SCALE = 0.25
OBSERVERS = ("tracing", "load", "audit")
#: Fresh-process set-ups timed per driver run, beside the measured pass.
SETUP_REPEATS = 4
#: Untraced passes of a ``--trace 1`` driver run; two unless named here.
#: One run has 180 s on a host whose speed swings 2.5x, and scale-cold's
#: passes are the long ones.
DRIVER_UNTRACED = {"scale-cold": 1}
CHILD_TIMEOUT_S = 170


class LedgerError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# -- child processes -----------------------------------------------------------


def child(kind: str, **spec) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    spec["kind"] = kind
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise LedgerError(f"child {spec} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def child_main(spec: dict, started: float | None = None) -> dict:
    """Dispatch one job; ``started`` is when this process began, so a
    pass in a fresh process counts its imports as set-up."""
    kind = spec.pop("kind")
    if kind == "pass":
        from passes import run_pass

        return run_pass(started=started, **spec)
    if kind == "micro":
        from micro import run_micro

        return run_micro(**spec)
    if kind == "shard":
        from legs import run_shard_legs

        return run_shard_legs(**spec)
    raise LedgerError(f"unknown child kind {kind!r}")


class Runner:
    """Runs jobs in fresh processes, or in this one for ``--smoke``."""

    def __init__(self, in_process: bool = False) -> None:
        self.in_process = in_process
        self.walls: list[tuple[str, float]] = []

    def __call__(self, kind: str, **spec) -> dict:
        label = " ".join([kind] + [f"{k}={v}" for k, v in spec.items()])
        start = time.perf_counter()
        if self.in_process:
            result = child_main(dict(spec, kind=kind))
        else:
            result = child(kind, **spec)
        self.walls.append((label, time.perf_counter() - start))
        return result


# -- assembling metrics ----------------------------------------------------------


def check_agreement(name: str, passes: list[dict]) -> None:
    """Every pass of a workload must report the same simulated outcome."""
    first = passes[0]
    for other in passes[1:]:
        if other["sha256"] != first["sha256"]:
            raise LedgerError(f"{name}: behaviour fingerprints differ between passes")
        for key, value in first["simulated"].items():
            if other["simulated"][key] != value:
                raise LedgerError(
                    f"{name}: {key} differs between passes: "
                    f"{value!r} vs {other['simulated'][key]!r}"
                )


def check_correct(result: dict) -> list[str]:
    """Reasons this pass's outputs are wrong (empty when correct)."""
    simulated = result["simulated"]
    problems = []
    if simulated["false_positives"]:
        problems.append(f"{simulated['false_positives']} false-positive deliveries")
    if simulated["ops_raised"]:
        problems.append(
            f"{simulated['ops_raised']} injected calls raised: "
            + result.get("first_error", "").strip().splitlines()[-1]
        )
    if result["delivery_guaranteed"] and simulated["delivered_share"] < 1:
        missed = simulated["pairs_expected"] - simulated["pairs_delivered"]
        problems.append(f"{missed} expected pairs not delivered")
    return problems


def end_to_end(profiled: dict, measured: list[dict], setups: list[float]) -> dict:
    """The eight end-to-end metrics of one workload.

    ``measured`` are the passes whose memory is reported (the untraced
    ones in a full run; the profiled pass in a driver run, whose
    resident size reads the same — see the README).
    """
    simulated = profiled["simulated"]
    return {
        "py_calls_per_op": profiled["profile"]["total_calls"] / profiled["ops"],
        "msgs_per_op": simulated["msgs_per_op"],
        "notify_delay_p50_sim_s": simulated["notify_delay_p50_sim_s"],
        "notify_delay_p99_sim_s": simulated["notify_delay_p99_sim_s"],
        "delivered_share": simulated["delivered_share"],
        "peak_rss_mb": max(p["max_rss_kb"] for p in measured) / 1024,
        "bytes_per_node": statistics.median(
            (p["rss_after"] - p["rss_before"]) / p["nodes"] for p in measured
        ),
        "setup_s": statistics.median(setups),
    }


def workload_layers(untraced: list[dict], profiled: dict) -> dict:
    """Profile fold, work counters and host time of one workload."""
    ops = profiled["ops"]
    fold = profiled["profile"]
    layer_calls = {name: fold["layers"][name]["calls"] for name in LAYERS}
    total = fold["total_calls"]
    if abs(sum(layer_calls.values()) - total) > 1e-6 * total:
        raise LedgerError("per-layer calls do not sum to the profile total")
    self_total = sum(fold["layers"][name]["self_s"] for name in LAYERS)
    out = {}
    for name in LAYERS:
        out[f"{name}.calls_per_op"] = layer_calls[name] / ops
    for name in LAYERS:
        out[f"{name}.self_share"] = fold["layers"][name]["self_s"] / self_total
    for key, value in profiled["simulated"].items():
        if "." in key:
            out[key] = value
    out.update(profiled["matching"])
    slices = zip(*(p["slice_walls"] for p in untraced))
    run_s = sum(min(walls) for walls in slices)
    wholes = [p["run_s"] for p in untraced]
    out["host.run_s"] = run_s
    out["host.ops_per_s"] = ops / run_s
    out["host.run_spread"] = max(wholes) / min(wholes)
    out["host.trace_overhead_ratio"] = profiled["run_s"] / min(wholes)
    return out


def observer_legs(run: Runner, seed: int, scale: float) -> dict:
    """steady-chord with one observer on at a time, against all off.

    Each leg runs once untraced for its wall time and once under the
    counting profiler for its exact call count.  The legs last about a
    second, so a noisy phase of a shared host moves the wall ratios;
    the call counts are what a claim rests on.
    """
    kinds = ("off",) + OBSERVERS
    specs = {
        kind: dict(name="steady-chord", seed=seed, scale=scale, observer=kind)
        for kind in kinds
    }
    plain = {kind: run("pass", **specs[kind]) for kind in kinds}
    calls = {}
    for kind in kinds:
        profiled = run("pass", profile=True, count_only=True, **specs[kind])
        check_agreement(f"observer leg {kind}", [plain[kind], profiled])
        calls[kind] = profiled["profile"]["total_calls"]
    ops = plain["off"]["ops"]
    wall = {kind: plain[kind]["run_s"] for kind in kinds}
    out = {"observers.off.calls_per_op": calls["off"] / ops}
    for kind in OBSERVERS:
        out[f"observers.{kind}.extra_calls_per_op"] = (calls[kind] - calls["off"]) / ops
        out[f"observers.{kind}.wall_ratio"] = wall[kind] / wall["off"]
    out["observers.digest_neutral"] = int(
        all(plain[kind]["sha256"] == plain["off"]["sha256"] for kind in OBSERVERS)
    )
    return out


def global_layers(run: Runner, seed: int, scale: float) -> dict:
    """Per-layer metrics that belong to no single workload."""
    out = run("micro", seed=seed, scale=scale)
    out.update(observer_legs(run, seed, OBSERVER_SCALE * scale))
    out.update(run("shard", seed=seed, scale=scale))
    return out


def measure_workloads(
    run: Runner, names: list[str], seed: int, scale: float = 1.0
) -> dict:
    """Two untraced passes per workload in round-robin, then one profiled."""
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(2):
        for name in names:
            untraced[name].append(run("pass", name=name, seed=seed, scale=scale))
    results = {}
    for name in names:
        profiled = run("pass", name=name, seed=seed, scale=scale, profile=True)
        passes = untraced[name] + [profiled]
        check_agreement(name, passes)
        results[name] = {
            "problems": check_correct(profiled),
            "simulated": profiled["simulated"],
            "sha256": profiled["sha256"],
            "end_to_end": end_to_end(
                profiled, untraced[name], [p["setup_s"] for p in passes]
            ),
            "per_layer": workload_layers(untraced[name], profiled),
        }
    return results


# -- reporting ------------------------------------------------------------------


def check_schema(results: dict, shared: dict) -> None:
    """The metrics produced must be exactly the ones the catalog names."""
    for name, result in results.items():
        if set(result["end_to_end"]) != {row[0] for row in END_TO_END}:
            raise LedgerError(f"{name}: end-to-end metrics differ from the catalog")
        if shared:
            produced = set(result["per_layer"]) | set(shared)
            if produced != {row[0] for row in PER_LAYER}:
                raise LedgerError(f"{name}: per-layer metrics differ from the catalog")


def fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_rows(title: str, rows: dict, names=None) -> None:
    print(f"\n== {title}")
    for name in names or rows:
        print(f"  {name:<58} {fmt(rows[name]):>14} {UNITS.get(name, '')}")


def print_workload(name: str, result: dict) -> None:
    simulated = result["simulated"]
    print_rows(f"{name}: end to end", result["end_to_end"],
               [row[0] for row in END_TO_END])
    print(
        f"  pairs expected {simulated['pairs_expected']}"
        f" delivered {simulated['pairs_delivered']}"
        f" false positives {simulated['false_positives']};"
        f" injected calls raised {simulated['ops_raised']};"
        f" membership ops {simulated['membership_ops']};"
        f" delay samples {simulated['notify_delay_samples']}"
        f" (tail percentile {simulated['notify_delay_tail_quantile']:.4f});"
        f" events {simulated['events']}; sha256 {result['sha256'][:16]}"
    )
    print_rows(f"{name}: per layer", result["per_layer"])
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def shape_checks(results: dict) -> list[tuple[str, bool]]:
    """Does each workload stress the layer it was chosen for?"""

    def share(name: str, *layers: str) -> float:
        return sum(results[name]["per_layer"][f"{l}.self_share"] for l in layers)

    rows = []
    if "steady-chord" in results:
        shares = {
            key: value
            for key, value in results["steady-chord"]["per_layer"].items()
            if key.endswith(".self_share")
        }
        rows.append((
            "steady-chord: overlay.chord has the largest self share",
            max(shares, key=shares.get) == "overlay.chord.self_share",
        ))
    if "match-dense" in results:
        rows.append((
            "match-dense: matching + core.rendezvous self share >= 0.35",
            share("match-dense", "matching", "core.rendezvous") >= 0.35,
        ))
    for name in ("steady-chord", "steady-can"):
        if name in results:
            rows.append((
                f"{name}: matching + core.rendezvous self share <= 0.12",
                share(name, "matching", "core.rendezvous") <= 0.12,
            ))
    if "steady-can" in results:
        rows.append((
            "steady-can: overlay.can self share >= 0.45",
            share("steady-can", "overlay.can") >= 0.45,
        ))
    for name in results:
        if name != "steady-can":
            rows.append((
                f"{name}: overlay.can self share is 0",
                share(name, "overlay.can") == 0,
            ))
    if "churn-chord" in results:
        rows.append((
            "churn-chord: overlay.table_patches > 0",
            results["churn-chord"]["per_layer"]["overlay.table_patches"] > 0,
        ))
    return rows


def print_checks(title: str, rows) -> None:
    print(f"\n== {title}")
    for text, ok in rows:
        print(f"  {'pass' if ok else 'FAIL'}  {text}")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (unknown outside a clone)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown"


def meta(seed: int, run: Runner) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "pass_wall_s": [[label, wall] for label, wall in run.walls],
        "total_s": time.perf_counter() - _STARTED,
    }


# -- modes ------------------------------------------------------------------------


def mode_list() -> int:
    from workloads import WORKLOADS

    print("workloads:")
    for workload in WORKLOADS.values():
        print(f"  {workload.name}: {workload.why}")
    print("end-to-end metrics (per workload):")
    for name, unit, better, bound, _ in END_TO_END:
        print(f"  {name} [{unit}, {better} is better, bound {bound}]")
    print("per-layer metrics:")
    for name, unit, better in PER_LAYER:
        print(f"  {name} [{unit}, {better} is better]")
    return 0


def mode_full(args, run: Runner, scale: float = 1.0) -> int:
    from micro import paper_checks
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    results = {}
    if not args.only_micro:
        results = measure_workloads(run, names, args.seed, scale)
        for name in names:
            print_workload(name, results[name])
    document = {"workloads": results}
    if args.only_micro:
        shared = run("micro", seed=args.seed, scale=scale)
    elif args.workload:
        shared = {}
    else:
        shared = global_layers(run, args.seed, scale)
    check_schema(results, shared)
    if shared:
        print_rows("micro-drivers, observer legs, shard legs", shared)
        checks = paper_checks(shared)
        document["shared_per_layer"] = shared
        document["paper_checks"] = checks
        print_checks("paper bounds (reported, not enforced)", [
            (f"{c['metric']} = {fmt(c['value'])} within [{c['low']}, {c['high']}]"
             f"  ({c['source']})", c["pass"])
            for c in checks
        ])
    if results and scale == 1:
        print_checks("workload shapes (reported, not enforced)", shape_checks(results))
    document["meta"] = meta(args.seed, run)
    print(f"\ntotal {document['meta']['total_s']:.1f} s")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(document, out, indent=1)
    failed = [name for name in results if results[name]["problems"]]
    if failed:
        print(f"INCORRECT outputs on: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def mode_smoke(args) -> int:
    """A tenth of the size, in this process; checks schema and exactness."""
    from workloads import WORKLOADS

    code = mode_full(args, Runner(in_process=True), scale=0.1)
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as handle:
            committed = json.load(handle)
        expected = benchmark_json(WORKLOADS.values(), committed["run_seconds"])
        if committed != expected:
            print("BENCHMARK.json disagrees with catalog.py", file=sys.stderr)
            return 1
    print(
        f"smoke ok: {len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end "
        f"and {len(PER_LAYER)} per-layer metrics"
    )
    return code


def mode_aa(args, run: Runner) -> int:
    """Two sets of end-to-end measurements of the same code, compared."""
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    first = measure_workloads(run, names, args.seed)
    second = measure_workloads(run, names, args.seed)
    worst = 0
    print(f"{'workload':<14} {'metric':<26} {'first':>14} {'second':>14} "
          f"{'rel diff':>9} {'bound':>6}")
    for name in names:
        for metric, _, better, bound, _ in END_TO_END:
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            past = abs(worse) > bound
            worst += past
            print(f"{name:<14} {metric:<26} {fmt(a):>14} {fmt(b):>14} "
                  f"{worse:>+9.4f} {bound:>6} {'PAST BOUND' if past else ''}")
    return 1 if worst else 0


def mode_driver(args, run: Runner) -> int:
    """One workload for the benchmark driver; last line is the result."""
    name = args.workload[0]
    spec = dict(name=name, seed=args.seed)
    if args.trace:
        untraced = [
            run("pass", **spec) for _ in range(DRIVER_UNTRACED.get(name, 2))
        ]
        profiled = run("pass", profile=True, **spec)
        passes = untraced + [profiled]
        check_agreement(name, passes)
        values = workload_layers(untraced, profiled)
        values.update(global_layers(run, args.seed, 1.0))
        names = [row[0] for row in PER_LAYER]
    else:
        passes = []
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(run("pass", profile=True, count_only=True, **spec))
            measured += passes[-1]["run_s"]
        check_agreement(name, passes)
        profiled = passes[0]
        setups = [p["setup_s"] for p in passes] + [
            run("pass", setup_only=True, **spec)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        values = end_to_end(profiled, passes, setups)
        names = [row[0] for row in END_TO_END]
    problems = check_correct(profiled)
    simulated = profiled["simulated"]
    print_rows(f"{name} seed {args.seed} trace {args.trace}", values, names)
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    for label, wall in run.walls:
        print(f"  {wall:7.1f} s  {label}")
    print(f"  pairs expected {simulated['pairs_expected']} delivered "
          f"{simulated['pairs_delivered']}; passes {len(passes)}; "
          f"total {time.perf_counter() - _STARTED:.1f} s")
    attempted = profiled["ops"] + simulated["membership_ops"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": simulated["ops_raised"],
        "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
    }))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--only-micro", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.child:
        print(json.dumps(child_main(json.loads(args.child), _STARTED)))
        return 0
    from workloads import WORKLOADS

    for name in args.workload or ():
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; see --list")
    try:
        if args.list:
            return mode_list()
        if args.smoke:
            return mode_smoke(args)
        run = Runner()
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--trace needs exactly one --workload")
            return mode_driver(args, run)
        if args.aa:
            return mode_aa(args, run)
        return mode_full(args, run)
    except LedgerError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
