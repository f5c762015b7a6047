"""The audit section of ``repro report``: the delivery health report.

:func:`build_audit_section` picks the audit records out of a loaded
telemetry export (:func:`repro.telemetry.reader.load_jsonl`) —
violation and probe records plus the ``audit.*`` counters and SLO
histograms — and :func:`render_health_report` renders them.
"""

from __future__ import annotations

from repro.audit.records import VIOLATION_TYPES
from repro.telemetry.registry import format_metric

#: Sample violation details shown per type in the report.
_DETAILS_PER_TYPE = 3

#: SLO histograms rendered with percentiles in the health report.
SLO_HISTOGRAMS = (
    "audit.notification_latency",
    "audit.hop_dilation",
    "audit.duplicate_deliveries",
)


def metric_name(record: dict) -> str:
    """``name`` or ``name{k=v,...}`` of an exported instrument record."""
    return format_metric(record["name"], tuple(sorted(record["labels"].items())))


def build_audit_section(dump: dict[str, list[dict]]) -> dict | None:
    """The audit records of a loaded export, or None when there are none.

    None means the run was not audited (no probes, no violations, no
    ``audit.*`` counters), which is not a clean bill of health.
    """
    counters = [c for c in dump["counter"] if c["name"].startswith("audit.")]
    if not (dump["violation"] or dump["probe"] or counters):
        return None
    return {
        "violations": dump["violation"],
        "probes": dump["probe"],
        "counters": counters,
        "histograms": [
            h for h in dump["histogram"] if h["name"] in SLO_HISTOGRAMS
        ],
    }


def render_health_report(section: dict, source: str = "") -> str:
    """Render the audit section as a multi-line string."""
    violations = section["violations"]
    probes = section["probes"]
    lines: list[str] = []
    title = "audit health report"
    if source:
        title += f" — {source}"
    lines.append(title)
    lines.append("=" * len(title))
    if violations:
        lines.append(f"VERDICT: UNHEALTHY — {len(violations)} violation(s)")
    else:
        lines.append("VERDICT: healthy — 0 violations")
    lines.append("")

    lines.append("violations by type:")
    counts: dict[str, list[dict]] = {}
    for violation in violations:
        counts.setdefault(violation["vtype"], []).append(violation)
    known = [v for v in VIOLATION_TYPES if v in counts]
    extra = sorted(set(counts) - set(VIOLATION_TYPES))
    for vtype in known + extra:
        group = counts[vtype]
        lines.append(f"  {vtype}: {len(group)}")
        for violation in group[:_DETAILS_PER_TYPE]:
            where = f"node {violation['node']}" if violation["node"] >= 0 else "-"
            mapping = f" [{violation['mapping']}]" if violation["mapping"] else ""
            lines.append(
                f"    t={violation['t']:.3f} {where}{mapping}: {violation['detail']}"
            )
        if len(group) > _DETAILS_PER_TYPE:
            lines.append(f"    ... and {len(group) - _DETAILS_PER_TYPE} more")
    if not counts:
        lines.append("  (none)")
    lines.append("")

    lines.append("structural probes:")
    if probes:
        checked = sum(p["nodes_checked"] for p in probes)
        overlays = sorted({p["overlay"] for p in probes})
        lines.append(
            f"  {len(probes)} probe(s) over {'/'.join(overlays)}: "
            f"{checked} node-checks"
        )
    else:
        lines.append("  (none recorded)")
    lines.append("")

    lines.append("delivery accounting:")
    if section["counters"]:
        for counter in sorted(
            section["counters"],
            key=lambda c: (c["name"], sorted(c["labels"].items())),
        ):
            lines.append(f"  {metric_name(counter)}: {counter['value']}")
    else:
        lines.append("  (no audit counters)")
    lines.append("")

    lines.append("SLO histograms (p50/p95/p99):")
    slo = section["histograms"]
    for histogram in sorted(slo, key=lambda h: h["name"]):
        if histogram["count"]:
            lines.append(
                f"  {metric_name(histogram)}: {histogram['p50']:.4g}/"
                f"{histogram['p95']:.4g}/{histogram['p99']:.4g} "
                f"(n={histogram['count']}, max={histogram['max']:.4g})"
            )
        else:
            lines.append(f"  {metric_name(histogram)}: no observations")
    if not slo:
        lines.append("  (none)")
    return "\n".join(lines)
