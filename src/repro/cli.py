"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figure`` — regenerate one of the paper's figures and print its
  table (``fig5`` .. ``fig9b``, plus the ``routing`` baseline).
- ``run`` — run a single simulation with explicit knobs and print the
  headline metrics; ``--telemetry``/``--perfetto`` additionally record
  per-hop spans and periodic metric samples and export them.
- ``stats`` — summarize a ``--telemetry`` JSONL export (span counts,
  hop latency, m-cast tree coverage, final instruments, SLO
  percentiles for audited runs).
- ``audit`` — render the delivery-correctness health report from an
  audited export; exits non-zero when violations were recorded.
- ``report`` — load-skew observatory report from a telemetry export
  (terminal heatmap of hot nodes / rendezvous keys, Gini, overload
  events; ``--json`` writes the artifact), or — with ``--out-dir``
  and no path — the full evaluation suite with CSVs.
- ``trace`` — pre-generate a workload trace to JSON, or replay one.

Examples::

    python -m repro figure fig5 --subscriptions 300 --publications 300
    python -m repro run --mapping keyspace-split --routing mcast --nodes 500
    python -m repro run --telemetry out.jsonl --perfetto out.trace.json
    python -m repro run --audit --telemetry out.jsonl
    python -m repro stats out.jsonl
    python -m repro audit out.jsonl --report health.txt
    python -m repro report out.jsonl --json load-report.json
    python -m repro trace generate --out trace.json --subscriptions 100
    python -m repro trace replay trace.json --mapping selective-attribute
"""

from __future__ import annotations

import argparse
import sys

from repro.core.system import RoutingMode
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
    run.add_argument("--perfetto", metavar="PATH", default=None,
                     help="export a Chrome trace-event JSON "
                          "(open at https://ui.perfetto.dev)")
    run.add_argument("--audit", action="store_true",
                     help="run the online invariant auditor (structural "
                          "probes + delivery-correctness oracle)")
    run.add_argument("--audit-period", type=float, default=None,
                     help="seconds between structural probes "
                          "(default: horizon / 12)")

    stats = sub.add_parser(
        "stats", help="summarize a telemetry JSONL export"
    )
    stats.add_argument("path")

    audit = sub.add_parser(
        "audit", help="health report from an audited telemetry export"
    )
    audit.add_argument("path")
    audit.add_argument("--report", metavar="OUT", default=None,
                       help="also write the report to this file")

    report = sub.add_parser(
        "report",
        help="load-skew report from a telemetry export, or (with "
             "--out-dir and no path) the full evaluation suite",
    )
    report.add_argument("path", nargs="?", default=None,
                        help="telemetry JSONL export; when given, print "
                             "the rendezvous load-skew heatmap instead of "
                             "running the evaluation suite")
    report.add_argument("--json", metavar="OUT", default=None,
                        help="also write the load report as JSON "
                             "(load-report mode only)")
    report.add_argument("--top", type=int, default=10,
                        help="hot entities shown per scope "
                             "(load-report mode only)")
    report.add_argument("--out-dir", default=None,
                        help="suite mode: directory for CSVs and SUMMARY.txt")
    report.add_argument("--scale", choices=["quick", "default", "paper"],
                        default="quick")
    report.add_argument("--only", nargs="*", default=None,
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
    if args.telemetry or args.perfetto or args.audit:
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
    if telemetry is not None:
        from repro.telemetry.export import write_chrome_trace, write_jsonl

        if args.telemetry:
            count = write_jsonl(telemetry, args.telemetry)
            print(f"wrote {count} telemetry records to {args.telemetry}")
        if args.perfetto:
            count = write_chrome_trace(telemetry, args.perfetto)
            print(f"wrote {count} trace events to {args.perfetto} "
                  "(open at https://ui.perfetto.dev)")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table as _render
    from repro.telemetry.export import load_jsonl
    from repro.telemetry.tracing import (
        DROPPED,
        LOST,
        ROOT,
        delivery_coverage,
    )

    dump = load_jsonl(args.path)
    spans = dump.spans
    by_kind: dict[str, int] = {}
    hop_latencies: list[float] = []
    dropped = lost = roots = 0
    for span in spans:
        by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        if span.status == ROOT:
            roots += 1
        elif span.status == DROPPED:
            dropped += 1
        elif span.status == LOST:
            lost += 1
        elif span.t_recv is not None:
            hop_latencies.append(span.t_recv - span.t_send)
    coverage = delivery_coverage(spans, dump.deliveries)
    complete = sum(1 for ok in coverage.values() if ok)
    rows = [
        ["spans", len(spans)],
        ["requests (root spans)", roots],
        ["deliveries", len(dump.deliveries)],
        ["hops dropped (dead destination)", dropped],
        ["hops lost (loss model)", lost],
        ["mean hop latency [s]",
         sum(hop_latencies) / len(hop_latencies) if hop_latencies else 0.0],
        ["requests with deliveries", len(coverage)],
        ["  ...with complete causal trees", complete],
        ["metric samples", len(dump.samples)],
        ["final counters", len(dump.counters)],
        ["final gauges", len(dump.gauges)],
        ["final histograms", len(dump.histograms)],
    ]
    for kind in sorted(by_kind):
        rows.append([f"spans[{kind}]", by_kind[kind]])
    if dump.violations or dump.probes:
        rows.append(["audit violations", len(dump.violations)])
        rows.append(["audit probes", len(dump.probes)])
    version = dump.meta.get("version", 1)
    if not dump.loads and version < 3:
        rows.append([
            "load observatory",
            f"n/a (format v{version} predates load records; re-run with "
            "--telemetry on v3+)",
        ])
    if dump.loads:
        node_records = [r for r in dump.loads if r.get("scope") == "node"]
        key_records = [r for r in dump.loads if r.get("scope") == "key"]
        rows.append(["load records (nodes)", len(node_records)])
        rows.append(["load records (keys)", len(key_records)])
        rows.append(["skew samples", len(dump.skews)])
        rows.append(["overload events", len(dump.overloads)])
        final_node_skews = [
            r for r in dump.skews if r.get("scope") == "node"
        ]
        if final_node_skews:
            last = final_node_skews[-1]
            rows.append(["node-load gini (final)", f"{last['gini']:.4f}"])
            rows.append(
                ["node-load p99/mean (final)", f"{last['p99_mean_ratio']:.2f}"]
            )
        if key_records:
            hottest = max(
                key_records,
                key=lambda r: (
                    r.get("subscriptions", 0) + r.get("publications", 0),
                    -r["id"],
                ),
            )
            rows.append([
                "hottest rendezvous key",
                f"{hottest['id']} "
                f"(subs={hottest.get('subscriptions', 0)}, "
                f"pubs={hottest.get('publications', 0)})",
            ])
        cover_roots = sum(r.get("cover_roots", 0) for r in node_records)
        cover_collapsed = sum(
            r.get("cover_collapsed", 0) for r in node_records
        )
        if cover_roots or cover_collapsed:
            rows.append(["covering roots (matcher-resident)", cover_roots])
            rows.append(["covering collapsed installs", cover_collapsed])
            rows.append([
                "covering promotions",
                sum(r.get("cover_promotions", 0) for r in node_records),
            ])
    for record in sorted(
        dump.histograms, key=lambda r: (r["name"], sorted(r["labels"].items()))
    ):
        if not record["count"]:
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(record["labels"].items()))
        name = f"{record['name']}{{{labels}}}" if labels else record["name"]
        # p99 is absent from version-1 exports.
        p99 = record.get("p99")
        rows.append([
            f"  {name} p50/p95/p99",
            f"{record['p50']:.4g} / {record['p95']:.4g} / "
            + (f"{p99:.4g}" if p99 is not None else "n/a"),
        ])
    print(_render(["metric", "value"], rows, title=f"telemetry in {args.path}"))
    return 0 if complete == len(coverage) else 1


def _command_audit(args: argparse.Namespace) -> int:
    from repro.audit import report_from_dump
    from repro.telemetry.export import load_jsonl

    dump = load_jsonl(args.path)
    text, has_audit_data = report_from_dump(dump, source=str(args.path))
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"wrote health report to {args.report}")
    if not has_audit_data:
        print("error: export has no audit records (run with --audit)",
              file=sys.stderr)
        return 2
    return 1 if dump.violations else 0


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
    if args.path is not None:
        import json

        from repro.telemetry.export import load_jsonl
        from repro.telemetry.loadreport import (
            build_load_report,
            render_load_report,
        )

        dump = load_jsonl(args.path)
        version = dump.meta.get("version", 1)
        if not dump.loads:
            if version < 3:
                print(
                    f"error: export is format v{version}, which predates "
                    "load records (v3+); re-run with --telemetry on the "
                    "current build",
                    file=sys.stderr,
                )
            else:
                print(
                    "error: export has no load records (run with "
                    "--telemetry on format v3+)",
                    file=sys.stderr,
                )
            return 2
        report = build_load_report(dump, top=args.top)
        print(render_load_report(report, source=str(args.path)))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
            print(f"wrote load report to {args.json}")
        return 0

    if args.out_dir is None:
        print("error: either a telemetry JSONL path (load report) or "
              "--out-dir (evaluation suite) is required", file=sys.stderr)
        return 2
    from repro.experiments.suite import SCALES, run_suite

    only = tuple(args.only) if args.only else None
    run_suite(args.out_dir, scale=SCALES[args.scale], only=only)
    print(f"wrote CSVs and SUMMARY.txt to {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command = {
        "figure": _command_figure, "run": _command_run, "stats": _command_stats,
        "audit": _command_audit, "report": _command_report, "trace": _command_trace,
    }[args.command]
    try:
        return command(args)
    except ConfigurationError as exc:  # a bad configuration or trace file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
