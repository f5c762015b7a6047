"""Load-skew report: JSON artifact + terminal heatmap from an export.

The load section of ``repro report <trace.jsonl>``
(:mod:`repro.telemetry.reader`): :func:`build_load_report` turns the
export's ``load`` / ``skew`` / ``overload`` records into the section,
and :func:`render_load_report` prints it — a bar heatmap of the
hottest overlay nodes and rendezvous keys with their load shares, the
distribution-level skew statistics (Gini, p99/mean), and the windowed
overload events.  ``--json`` carries the same numbers for dashboards
and CI.

Loads mirror :class:`~repro.telemetry.load.LoadMeter`'s aggregation:
node load = forwarded + delivered messages; key load = subscriptions
stored + publication deliveries under the key.
"""

from __future__ import annotations

from repro.metrics.skew import skew_summary

#: Width of the heatmap bars in terminal cells.
_BAR_WIDTH = 32

#: Entities shown per scope by default.
_DEFAULT_TOP = 10


def _loads(records: list[dict], *fields: str) -> dict[int, float]:
    """Per record id, the sum of ``fields`` (the load unit of a scope)."""
    return {r["id"]: float(sum(r.get(f, 0) for f in fields)) for r in records}


def _scope_section(
    records: list[dict], loads: dict[int, float], top: int, fields: list[str]
) -> dict:
    """One scope's (node/key) report section from its load records."""
    by_id = {record["id"]: record for record in records}
    summary = skew_summary(loads, top)
    entries = []
    for entity, load in summary.top:
        record = by_id.get(entity, {})
        entries.append({
            "id": entity,
            "load": load,
            "share": round(load / summary.total, 6) if summary.total else 0.0,
            **{field: record.get(field, 0) for field in fields},
        })
    return {
        "count": summary.count,
        "total_load": summary.total,
        "gini": round(summary.gini, 6),
        "p99_mean_ratio": round(summary.p99_mean_ratio, 6),
        "top": entries,
    }


def build_load_report(
    dump: dict[str, list[dict]], top: int = _DEFAULT_TOP
) -> dict | None:
    """Build the JSON-able load report from a loaded export.

    Returns None when the export holds no ``load`` records, else a
    dict with ``nodes`` / ``keys`` sections (counts, total load, Gini,
    p99/mean, top-k entries with load shares), a
    ``matching`` section (matcher-work skew over the active rendezvous
    nodes plus the covering-index gauges — roots, collapsed installs,
    promotions), the skew sample count, and an ``overload`` section
    summarizing detector events.  All numbers derive from the export's
    final ``load`` records, so the report is exact, not sampled.
    """
    if not dump["load"]:
        return None
    node_records = [r for r in dump["load"] if r.get("scope") == "node"]
    key_records = [r for r in dump["load"] if r.get("scope") == "key"]
    node_loads = _loads(node_records, "forwarded", "delivered")
    key_loads = _loads(key_records, "subscriptions", "publications")
    # Matcher-work distribution over *active* rendezvous nodes — the
    # load the covering index sheds (candidates + verified per node).
    match_loads = {
        node: work for node, work in
        _loads(node_records, "match_candidates", "match_verified").items()
        if work
    }
    match_summary = skew_summary(match_loads, 1)
    hottest_match = match_summary.top[0] if match_summary.top else None
    overloads = dump["overload"]
    overloaded = sorted({record["node"] for record in overloads})
    worst = max(overloads, key=lambda record: record["ratio"], default=None)
    return {
        "nodes": _scope_section(
            node_records, node_loads, top,
            ["forwarded", "delivered", "subscriptions", "bucket_max_depth",
             "match_candidates", "match_matched"],
        ),
        "keys": _scope_section(
            key_records, key_loads, top, ["subscriptions", "publications"],
        ),
        "matching": {
            "active_nodes": match_summary.count,
            "total_work": match_summary.total,
            "work_gini": round(match_summary.gini, 6),
            "hottest_node": hottest_match[0] if hottest_match else None,
            "hottest_share": (
                round(hottest_match[1] / match_summary.total, 6)
                if hottest_match and match_summary.total
                else 0.0
            ),
            "covering": {
                gauge: sum(r.get(f"cover_{gauge}", 0) for r in node_records)
                for gauge in ("roots", "collapsed", "promotions")
            },
        },
        "skew_samples": len(dump["skew"]),
        "overload": {
            "events": len(overloads),
            "nodes": overloaded,
            "worst": dict(worst) if worst else None,
        },
    }


def _bars(section: dict, label: str, detail) -> list[str]:
    """Heatmap lines for one scope section, hottest first."""
    entries = section["top"]
    if not entries:
        return [f"  (no {label} load recorded)"]
    peak = max(entry["load"] for entry in entries) or 1.0
    id_width = max(len(str(entry["id"])) for entry in entries)
    lines = []
    for entry in entries:
        filled = max(1, round(_BAR_WIDTH * entry["load"] / peak))
        bar = "█" * filled + "·" * (_BAR_WIDTH - filled)
        lines.append(
            f"  {label} {entry['id']:>{id_width}} {bar} "
            f"{entry['load']:>8.0f}  {entry['share']:6.1%}  {detail(entry)}"
        )
    return lines


def render_load_report(report: dict, source: str = "") -> str:
    """Render the report as a terminal heatmap (see module docstring)."""
    nodes = report["nodes"]
    keys = report["keys"]
    overload = report["overload"]
    title = "rendezvous load-skew report"
    if source:
        title += f" — {source}"
    lines = [
        title,
        "=" * len(title),
        "",
        f"hot nodes (of {nodes['count']}; total load "
        f"{nodes['total_load']:.0f} msgs, gini {nodes['gini']:.3f}, "
        f"p99/mean {nodes['p99_mean_ratio']:.2f}):",
    ]
    lines += _bars(
        nodes, "node",
        lambda e: f"fwd={e['forwarded']} dlv={e['delivered']} "
                  f"subs={e['subscriptions']} maxq={e['bucket_max_depth']}",
    )
    lines += [
        "",
        f"hot rendezvous keys (of {keys['count']}; total load "
        f"{keys['total_load']:.0f}, gini {keys['gini']:.3f}, "
        f"p99/mean {keys['p99_mean_ratio']:.2f}):",
    ]
    lines += _bars(
        keys, "key",
        lambda e: f"subs={e['subscriptions']} pubs={e['publications']}",
    )
    lines.append("")
    matching = report["matching"]
    if matching["active_nodes"]:
        covering = matching["covering"]
        lines.append(
            f"matcher work: {matching['total_work']:.0f} candidate+verify "
            f"across {matching['active_nodes']} active node(s), "
            f"gini {matching['work_gini']:.3f}, hottest node "
            f"{matching['hottest_node']} at {matching['hottest_share']:.1%}"
        )
        if covering["roots"] or covering["collapsed"]:
            lines.append(
                f"covering: {covering['roots']} roots matcher-resident, "
                f"{covering['collapsed']} collapsed install(s), "
                f"{covering['promotions']} promotion(s)"
            )
        lines.append("")
    if overload["events"]:
        worst = overload["worst"]
        lines.append(
            f"overload: {overload['events']} event(s) across "
            f"{len(overload['nodes'])} node(s) "
            f"[{', '.join(map(str, overload['nodes'][:10]))}"
            + ("…]" if len(overload["nodes"]) > 10 else "]")
        )
        if worst is not None:
            lines.append(
                f"  worst: node {worst['node']} at t={worst['t']:.1f}s — "
                f"{worst['window_load']:.0f} msgs in one window, "
                f"{worst['ratio']:.1f}x the ring median "
                f"(threshold {worst['threshold']:.1f}x)"
            )
    else:
        lines.append(
            f"overload: none across {report['skew_samples']} skew samples"
        )
    return "\n".join(lines)
