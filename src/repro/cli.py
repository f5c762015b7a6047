"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figure`` — regenerate one of the paper's figures and print its
  table (``fig5`` .. ``fig9b``, plus the ``routing`` baseline).
- ``run`` — run a single simulation with explicit knobs and print the
  headline metrics; ``--telemetry`` additionally records per-hop spans,
  periodic metric samples and load, and writes them as one JSONL file.
- ``report`` — read that file and print its trace, load and audit
  sections (``--json`` writes them, ``--perfetto`` the Chrome trace);
  exits 1 on any violation or incomplete causal tree.
- ``suite`` — the full evaluation suite, with CSVs and SUMMARY.txt.
- ``trace`` — pre-generate a workload trace to JSON, or replay one.

Examples::

    python -m repro figure fig5 --subscriptions 300 --publications 300
    python -m repro run --mapping keyspace-split --routing mcast --nodes 500
    python -m repro run --audit --telemetry out.jsonl
    python -m repro report out.jsonl --json report.json --perfetto out.trace.json
    python -m repro suite --out-dir results --scale default
    python -m repro trace generate --out trace.json --subscriptions 100
    python -m repro trace replay trace.json --mapping selective-attribute
"""

from __future__ import annotations

import argparse
import sys

from repro.core import RoutingMode
from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_table
from repro.experiments.runner import run_experiment
from repro.workload.spec import WorkloadSpec

FIGURES = {
    "fig5": (
        figures.figure5,
        ["mapping", "routing", "sub_hops", "pub_hops", "notify_hops",
         "keys_per_sub", "keys_per_pub"],
    ),
    "fig6": (
        figures.figure6,
        ["selective_attributes", "expiration", "mapping",
         "max_subs_per_node", "mean_subs_per_node"],
    ),
    "fig7": (figures.figure7, ["nodes", "pub_hops", "log2_n"]),
    "fig8": (
        figures.figure8,
        ["selective_attributes", "nodes", "mapping",
         "max_subs_per_node", "mean_subs_per_node"],
    ),
    "fig9a": (
        figures.figure9a,
        ["matching_probability", "variant", "notify_hops_per_pub",
         "notification_batches", "mean_delay"],
    ),
    "fig9b": (
        figures.figure9b,
        ["interval_fraction", "interval_width", "sub_hops", "keys_per_sub"],
    ),
    "routing": (
        figures.baseline_routing,
        ["cache_capacity", "pub_hops", "half_log2_n"],
    ),
}

MAPPING_CHOICES = [
    "attribute-split",
    "keyspace-split",
    "selective-attribute",
    "event-space-partition",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Content-based pub/sub over structured overlays (ICDCS 2005) — "
            "experiment runner"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--subscriptions", type=int, default=None)
    fig.add_argument("--publications", type=int, default=None)
    fig.add_argument("--nodes", type=int, default=None)
    fig.add_argument("--seed", type=int, default=None)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--mapping", choices=MAPPING_CHOICES,
                     default="selective-attribute")
    run.add_argument("--routing", choices=[m.value for m in RoutingMode],
                     default="mcast")
    run.add_argument("--overlay", choices=["chord", "pastry", "can"],
                     default="chord", help="routing substrate")
    run.add_argument("--nodes", type=int, default=500)
    run.add_argument("--subscriptions", type=int, default=300)
    run.add_argument("--publications", type=int, default=300)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--selective", type=int, default=0,
                     help="number of selective attributes (0-4)")
    run.add_argument("--matching-probability", type=float, default=0.5)
    run.add_argument("--temporal-locality", type=float, default=0.0,
                     help="probability each publication perturbs the previous")
    run.add_argument("--ttl", type=float, default=None,
                     help="subscription expiration in seconds")
    run.add_argument("--buffering", action="store_true")
    run.add_argument("--collecting", action="store_true")
    run.add_argument("--buffer-period", type=float, default=5.0)
    run.add_argument("--discretization", type=int, default=1,
                     help="interval width (1 = off)")
    run.add_argument("--replication", type=int, default=0)
    run.add_argument("--matcher", choices=["grid", "radix", "brute", "vector"],
                     default="grid",
                     help="rendezvous matching engine")
    run.add_argument("--no-covering", action="store_true",
                     help="disable subscription covering at rendezvous "
                          "stores (default: on unless --matcher brute, "
                          "which always runs uncollapsed as the oracle)")
    run.add_argument("--cache", type=int, default=128,
                     help="location cache capacity on chord and can "
                     "(0 = off; pastry has none)")
    run.add_argument("--telemetry", metavar="PATH", default=None,
                     help="record telemetry and export it as JSONL")
    run.add_argument("--audit", action="store_true",
                     help="run the online invariant auditor (structural "
                          "probes + delivery-correctness oracle)")
    run.add_argument("--audit-period", type=float, default=None,
                     help="seconds between structural probes "
                          "(default: horizon / 12)")

    report = sub.add_parser(
        "report", help="trace, load and audit report of a telemetry export"
    )
    report.add_argument("path", help="telemetry JSONL export (format v4)")
    report.add_argument("--json", metavar="OUT", default=None,
                        help="also write every section as one JSON object")
    report.add_argument("--top", type=int, default=10,
                        help="hot entities shown per load scope")
    report.add_argument("--perfetto", metavar="OUT", default=None,
                        help="also write a Chrome trace-event JSON "
                             "(open at https://ui.perfetto.dev)")

    suite = sub.add_parser("suite", help="run the full evaluation suite")
    suite.add_argument("--out-dir", required=True,
                       help="directory for CSVs and SUMMARY.txt")
    suite.add_argument("--scale", choices=["quick", "default", "paper"],
                       default="quick")
    suite.add_argument("--only", nargs="*", default=None,
                       help="subset of figures (e.g. fig5 fig9b)")

    trace = sub.add_parser("trace", help="generate or replay a trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate")
    generate.add_argument("--out", required=True)
    generate.add_argument("--subscriptions", type=int, default=100)
    generate.add_argument("--publications", type=int, default=100)
    generate.add_argument("--nodes", type=int, default=500)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--ttl", type=float, default=None)
    replay = trace_sub.add_parser("replay")
    replay.add_argument("path")
    replay.add_argument("--mapping", choices=MAPPING_CHOICES,
                        default="selective-attribute")
    replay.add_argument("--routing", choices=[m.value for m in RoutingMode],
                        default="mcast")
    replay.add_argument("--nodes", type=int, default=500)
    replay.add_argument("--seed", type=int, default=42)
    return parser


def _command_figure(args: argparse.Namespace) -> int:
    function, columns = FIGURES[args.name]
    kwargs = {}
    for knob in ("subscriptions", "publications", "nodes", "seed"):
        value = getattr(args, knob, None)
        if value is not None and knob in function.__code__.co_varnames:
            kwargs[knob] = value
    rows = function(**kwargs)
    print(
        render_table(
            columns,
            [[row.get(column) for column in columns] for row in rows],
            title=f"{args.name} — see EXPERIMENTS.md for the paper's shapes",
        )
    )
    return 0


def _key_bits(nodes: int) -> int:
    """The paper's 2^13 keys while the ring fits in them; a larger ring
    gets at least four keys per node (17 bits at n=20 000)."""
    return 13 if nodes <= 1 << 13 else nodes.bit_length() + 2


def _command_run(args: argparse.Namespace) -> int:
    workload = WorkloadSpec(
        selective_attributes=tuple(range(args.selective)),
        matching_probability=args.matching_probability,
        subscription_ttl=args.ttl,
        temporal_locality=args.temporal_locality,
    )
    config = ExperimentConfig(
        mapping=args.mapping,
        routing=RoutingMode(args.routing),
        overlay=args.overlay,
        nodes=args.nodes,
        key_bits=_key_bits(args.nodes),
        cache_capacity=args.cache,
        seed=args.seed,
        subscriptions=args.subscriptions,
        publications=args.publications,
        workload=workload,
        buffering=args.buffering or args.collecting,
        collecting=args.collecting,
        buffer_period=args.buffer_period,
        discretization_width=args.discretization,
        replication_factor=args.replication,
        matcher=args.matcher,
        covering=False if args.no_covering else None,
    )
    telemetry = None
    if args.telemetry or args.audit:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    audit_config = None
    if args.audit:
        from repro.audit import AuditConfig

        audit_config = AuditConfig(probe_period=args.audit_period)
    result = run_experiment(config, telemetry=telemetry, audit=audit_config)
    rows = [
        ["subscriptions sent", result.subscriptions_sent],
        ["publications sent", result.publications_sent],
        ["keys per subscription", result.keys_per_subscription],
        ["keys per publication", result.keys_per_publication],
        ["hops per subscription", result.sub_hops.mean],
        ["hops per publication", result.pub_hops.mean],
        ["hops per notification", result.notify_hops.mean],
        ["notification hops per publication",
         result.notification_hops_per_publication],
        ["max subscriptions per node", result.max_subscriptions_per_node],
        ["mean subscriptions per node", result.mean_subscriptions_per_node],
        ["mean notification delay [s]", result.notification_delay.mean],
    ]
    report = result.audit
    if report is not None:
        rows.append(["audit: publications audited", report.publications_audited])
        rows.append(["audit: violations", len(report.violations)])
    print(render_table(["metric", "value"], rows,
                       title=f"{args.mapping} / {args.routing} / n={args.nodes}"))
    if report is not None and not report.ok:
        for vtype, count in sorted(report.counts_by_type().items()):
            print(f"audit violation: {vtype} x{count}")
    if args.telemetry:
        from repro.telemetry.export import write_jsonl

        count = write_jsonl(telemetry, args.telemetry)
        print(f"wrote {count} telemetry records to {args.telemetry}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_system, generate_trace
    from repro.overlay.api import MessageKind
    from repro.sim.rng import RandomStreams
    from repro.workload.trace import Trace

    if args.trace_command == "generate":
        # The op list `repro run` executes for the same flags.
        trace = generate_trace(ExperimentConfig(
            nodes=args.nodes, key_bits=_key_bits(args.nodes),
            seed=args.seed, subscriptions=args.subscriptions,
            publications=args.publications,
            workload=WorkloadSpec(subscription_ttl=args.ttl),
        ))
        trace.save(args.out)
        print(f"wrote {len(trace)} operations to {args.out}")
        return 0
    trace = Trace.load(args.path)
    config = ExperimentConfig(
        mapping=args.mapping, routing=RoutingMode(args.routing),
        nodes=args.nodes, key_bits=_key_bits(args.nodes), seed=args.seed,
    )
    _, system = build_system(config, RandomStreams(config.seed))
    delivered = []
    system.set_global_notify_handler(lambda nid, ns: delivered.extend(ns))
    trace.replay(system)
    messages = system.recorder.messages
    rows = [
        ["operations replayed", len(trace)],
        ["notifications delivered", len(delivered)],
        ["hops per subscription",
         messages.mean_hops_per_request(MessageKind.SUBSCRIPTION)],
        ["hops per publication",
         messages.mean_hops_per_request(MessageKind.PUBLICATION)],
    ]
    print(render_table(["metric", "value"], rows, title=f"replay of {args.path}"))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import reader

    dump = reader.load_jsonl(args.path)
    report = reader.build_report(dump, top=args.top)
    print(reader.render_report(report, source=str(args.path)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote report to {args.json}")
    if args.perfetto:
        count = reader.write_chrome_trace(dump, args.perfetto)
        print(f"wrote {count} trace events to {args.perfetto} "
              "(open at https://ui.perfetto.dev)")
    return 1 if reader.report_failed(report) else 0


def _command_suite(args: argparse.Namespace) -> int:
    from repro.experiments.suite import SCALES, run_suite

    only = tuple(args.only) if args.only else None
    run_suite(args.out_dir, scale=SCALES[args.scale], only=only)
    print(f"wrote CSVs and SUMMARY.txt to {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command = {
        "figure": _command_figure, "run": _command_run,
        "report": _command_report, "suite": _command_suite,
        "trace": _command_trace,
    }[args.command]
    try:
        return command(args)
    except ConfigurationError as exc:  # a bad configuration or trace file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
