"""The one reader of a telemetry export: ``repro report PATH``.

:func:`load_jsonl` reads a version-5 file (:mod:`repro.telemetry.export`)
once into a dict of plain records keyed by record type.
:func:`build_report` turns that dict into one section per kind of data
the file can hold, ``None`` where the run recorded none:

- ``trace`` — span, delivery and instrument counts, hop latency,
  causal-tree completeness, and the non-audit histogram percentiles;
- ``load`` — the load-skew report (:mod:`repro.telemetry.loadreport`);
- ``audit`` — the health report (:mod:`repro.audit.report`).

:func:`to_chrome_trace` builds the Chrome trace-event JSON from the
same records: it opens directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  Each hop span becomes a complete ("X") slice
on its *source* node's track with flow arrows ("s"/"f") stitching
parent to child — so a publication's m-cast tree renders as a cascade
of arrows across node tracks — and periodic samples become counter
("C") tracks.  Simulated seconds map to trace microseconds.

Only the CLI imports this module, and only when it runs ``report``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.audit.report import (
    SLO_HISTOGRAMS,
    build_audit_section,
    metric_name,
    render_health_report,
)
from repro.errors import ConfigurationError
from repro.experiments.report import render_table
from repro.telemetry.export import FORMAT_NAME, FORMAT_VERSION
from repro.telemetry.loadreport import build_load_report, render_load_report
from repro.telemetry.tracing import DROPPED, LOST, ROOT, SENT

#: Every record type the reader keeps (``meta`` is checked, not kept).
RECORD_TYPES = (
    "span", "delivery", "sample", "counter", "gauge", "histogram",
    "violation", "probe", "load", "skew", "overload",
)


def load_jsonl(path: str | Path) -> dict[str, list[dict]]:
    """Read a version-5 export into ``{record type: [records]}``.

    Raises :class:`~repro.errors.ConfigurationError` unless the first
    line is the ``meta`` record of a version-5 ``repro-telemetry``
    file.  Records of an unknown type (the retired ``profile`` records
    among them) and shard-scope records (the retired profiler's
    ``overload`` events) are skipped.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            records = [json.loads(line) for line in handle if line.strip()]
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not JSONL: {exc}") from None
    meta = records[0] if records and isinstance(records[0], dict) else {}
    if meta.get("type") != "meta" or meta.get("format") != FORMAT_NAME:
        raise ConfigurationError(f"{path} is not a {FORMAT_NAME} export")
    if meta.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path} is {FORMAT_NAME} version {meta.get('version')}; this "
            f"build reads version {FORMAT_VERSION} only (re-run to export it)"
        )
    dump: dict[str, list[dict]] = {kind: [] for kind in RECORD_TYPES}
    for record in records[1:]:
        kept = dump.get(record.get("type"))
        if kept is not None and record.get("scope") != "shard":
            kept.append(record)
    return dump


# -- causal trees --------------------------------------------------------------


def request_tree(
    spans: list[dict], request_id: int
) -> tuple[list[int], set[int]]:
    """Roots and root-reachable span ids of one request's span graph.

    A request's roots are its ``root``-status spans (their ``parent``
    may point into another request — cross-request causality — which
    does not affect in-request reachability).
    """
    children: dict[int, list[int]] = {}
    roots: list[int] = []
    for span in spans:
        if span["request"] != request_id:
            continue
        if span["status"] == ROOT:
            roots.append(span["id"])
        else:
            children.setdefault(span["parent"], []).append(span["id"])
    reachable: set[int] = set()
    frontier = list(roots)
    while frontier:
        span_id = frontier.pop()
        if span_id in reachable:
            continue
        reachable.add(span_id)
        frontier.extend(children.get(span_id, ()))
    return roots, reachable


def delivery_coverage(
    spans: list[dict], deliveries: list[dict]
) -> dict[int, bool]:
    """Per request: is every delivery reachable from the request's root?

    This is the telemetry acceptance property — a publication's full
    m-cast tree is reconstructable iff each of its deliveries hangs off
    a span that walks back to the root.  Requests with no deliveries
    are omitted.
    """
    per_request: dict[int, list[int]] = {}
    for delivery in deliveries:
        per_request.setdefault(delivery["request"], []).append(delivery["span"])
    # One pass groups the spans, so each tree walks its own spans only.
    spans_of: dict[int, list[dict]] = {}
    for span in spans:
        spans_of.setdefault(span["request"], []).append(span)
    coverage: dict[int, bool] = {}
    for request_id, delivered in per_request.items():
        _, reachable = request_tree(spans_of.get(request_id, []), request_id)
        coverage[request_id] = all(span in reachable for span in delivered)
    return coverage


# -- the report ----------------------------------------------------------------

#: Printed labels of the trace section's counts that are not simply
#: their key with spaces for underscores.
_TRACE_LABELS = {
    "requests": "requests (root spans)",
    "hops_dropped": "hops dropped (dead destination)",
    "hops_lost": "hops lost (loss model)",
    "mean_hop_latency_s": "mean hop latency [s]",
    "complete_causal_trees": "  ...with complete causal trees",
}


def build_trace_section(dump: dict[str, list[dict]]) -> dict | None:
    """The trace section, or None when the file holds no spans.

    Histograms the audit section renders (its SLO histograms) are left
    out here, so each number is printed once.
    """
    spans = dump["span"]
    if not spans:
        return None
    statuses = Counter(span["status"] for span in spans)
    hop_latencies = [
        span["t_recv"] - span["t_send"] for span in spans
        if span["status"] == SENT
    ]
    coverage = delivery_coverage(spans, dump["delivery"])
    percentiles = {}
    for record in sorted(
        dump["histogram"],
        key=lambda r: (r["name"], sorted(r["labels"].items())),
    ):
        if record["count"] and record["name"] not in SLO_HISTOGRAMS:
            percentiles[metric_name(record)] = [
                record["p50"], record["p95"], record["p99"]
            ]
    return {
        "spans": len(spans),
        "requests": statuses[ROOT],
        "deliveries": len(dump["delivery"]),
        "hops_dropped": statuses[DROPPED],
        "hops_lost": statuses[LOST],
        "mean_hop_latency_s": (
            sum(hop_latencies) / len(hop_latencies) if hop_latencies else 0.0
        ),
        "requests_with_deliveries": len(coverage),
        "complete_causal_trees": sum(coverage.values()),
        "metric_samples": len(dump["sample"]),
        "final_counters": len(dump["counter"]),
        "final_gauges": len(dump["gauge"]),
        "final_histograms": len(dump["histogram"]),
        "spans_by_kind": dict(sorted(Counter(s["kind"] for s in spans).items())),
        "percentiles": percentiles,
    }


def render_trace_section(section: dict, source: str = "") -> str:
    """Render the trace section as a metric/value table."""
    rows = [
        [_TRACE_LABELS.get(key, key.replace("_", " ")), value]
        for key, value in section.items() if not isinstance(value, dict)
    ]
    rows += [
        [f"spans[{kind}]", count]
        for kind, count in section["spans_by_kind"].items()
    ]
    rows += [
        [f"  {name} p50/p95/p99", " / ".join(f"{p:.4g}" for p in values)]
        for name, values in section["percentiles"].items()
    ]
    return render_table(["metric", "value"], rows, title=f"telemetry in {source}")


def build_report(dump: dict[str, list[dict]], top: int) -> dict:
    """Every section of the report, None for one with no records."""
    return {
        "trace": build_trace_section(dump),
        "load": build_load_report(dump, top=top),
        "audit": build_audit_section(dump),
    }


#: Per section: its renderer, and what to do when it was not recorded.
_RENDERERS = {
    "trace": (render_trace_section, "no span records (run with --telemetry)"),
    "load": (render_load_report, "no load records (run with load metering on)"),
    "audit": (render_health_report, "no audit records (run with --audit)"),
}


def render_report(report: dict, source: str = "") -> str:
    """Render each section, or one line for a section not recorded."""
    return "\n\n".join(
        _RENDERERS[name][0](section, source=source) if section is not None
        else f"{name}: not recorded — {_RENDERERS[name][1]}"
        for name, section in report.items()
    )


def report_failed(report: dict) -> bool:
    """True on any audit violation or any incomplete causal tree."""
    trace, audit = report["trace"], report["audit"]
    return bool(
        trace and trace["complete_causal_trees"] != trace["requests_with_deliveries"]
        or audit and audit["violations"]
    )


# -- Chrome trace-event JSON (Perfetto) ----------------------------------------

#: Synthetic process id for the whole simulation in the trace view.
_PID = 1

#: Minimum slice duration in trace microseconds (zero-length slices are
#: invisible in Perfetto; root spans and same-tick hops get this floor).
_MIN_DUR_US = 1.0


def _us(t: float) -> float:
    return t * 1e6


def to_chrome_trace(dump: dict[str, list[dict]]) -> dict:
    """Build the Chrome trace-event representation of a loaded export."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID, "name": "process_name",
         "args": {"name": "repro simulation"}},
    ]
    named_tracks: set[int] = set()

    def ensure_track(node_id: int) -> None:
        if node_id in named_tracks:
            return
        named_tracks.add(node_id)
        events.append(
            {"ph": "M", "pid": _PID, "tid": node_id, "name": "thread_name",
             "args": {"name": f"node {node_id}"}}
        )

    spans = dump["span"]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        src, t_send = span["src"], span["t_send"]
        ensure_track(src)
        end = span["t_recv"] if span["t_recv"] is not None else t_send
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": src,
                "ts": _us(t_send),
                "dur": max(_us(end) - _us(t_send), _MIN_DUR_US),
                "name": f"{span['kind']} #{span['request']}",
                "cat": span["kind"],
                "args": {
                    "span": span["id"],
                    **{key: span[key] for key in ("parent", "src", "dst", "status")},
                },
            }
        )
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        # Flow arrow parent -> child; binding point "e" attaches the
        # finish to the enclosing slice so Perfetto draws the edge.
        flow = {"pid": _PID, "cat": span["kind"], "name": "hop",
                "id": span["id"]}
        events.append(
            {**flow, "ph": "s", "tid": parent["src"],
             "ts": _us(parent["t_send"])}
        )
        events.append(
            {**flow, "ph": "f", "bp": "e", "tid": src, "ts": _us(t_send)}
        )
    for delivery in dump["delivery"]:
        node_id, span_id = delivery["node"], delivery["span"]
        ensure_track(node_id)
        span = by_id.get(span_id)
        events.append(
            {
                "ph": "i",
                "pid": _PID,
                "tid": node_id,
                "ts": _us(delivery["t"]),
                "name": f"deliver {span['kind'] if span else '?'} "
                        f"#{delivery['request']}",
                "s": "t",
                "args": {"span": span_id, "request": delivery["request"]},
            }
        )
    for sample in dump["sample"]:
        for name, value in sample["metrics"].items():
            events.append(
                {"ph": "C", "pid": _PID, "ts": _us(sample["t"]), "name": name,
                 "args": {"value": value}}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(dump: dict[str, list[dict]], path: str | Path) -> int:
    """Write the Perfetto-openable trace JSON; returns the event count."""
    trace = to_chrome_trace(dump)
    Path(path).write_text(json.dumps(trace, separators=(",", ":")) + "\n")
    return len(trace["traceEvents"])
