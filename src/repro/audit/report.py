"""Health-report rendering for ``repro audit`` and ``repro run --audit``.

The renderer works from plain data (violation/probe records plus
``audit.*`` counter and histogram summaries) so the same report comes
out of a live :class:`~repro.audit.auditor.Auditor` and of a telemetry
JSONL export loaded back from disk.
"""

from __future__ import annotations

from repro.audit.records import VIOLATION_TYPES, ProbeRecord, Violation

#: Sample violation details shown per type in the report.
_DETAILS_PER_TYPE = 3

#: SLO histograms rendered with percentiles in the health report.
SLO_HISTOGRAMS = (
    "audit.notification_latency",
    "audit.hop_dilation",
    "audit.duplicate_deliveries",
    "audit.table_staleness",
)


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{{{inner}}}"


def render_health_report(
    violations: list[Violation],
    probes: list[ProbeRecord],
    counters: list[dict],
    histograms: list[dict],
    source: str = "",
) -> str:
    """Render the audit health report as a multi-line string."""
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
    counts: dict[str, list[Violation]] = {}
    for violation in violations:
        counts.setdefault(violation.vtype, []).append(violation)
    known = [v for v in VIOLATION_TYPES if v in counts]
    extra = sorted(set(counts) - set(VIOLATION_TYPES))
    for vtype in known + extra:
        group = counts[vtype]
        lines.append(f"  {vtype}: {len(group)}")
        for violation in group[:_DETAILS_PER_TYPE]:
            where = f"node {violation.node}" if violation.node >= 0 else "-"
            mapping = f" [{violation.mapping}]" if violation.mapping else ""
            lines.append(
                f"    t={violation.t:.3f} {where}{mapping}: {violation.detail}"
            )
        if len(group) > _DETAILS_PER_TYPE:
            lines.append(f"    ... and {len(group) - _DETAILS_PER_TYPE} more")
    if not counts:
        lines.append("  (none)")
    lines.append("")

    lines.append("structural probes:")
    if probes:
        checked = sum(p.nodes_checked for p in probes)
        stale = sum(p.nodes_stale for p in probes)
        cold = sum(p.nodes_cold for p in probes)
        worst = max(p.max_staleness for p in probes)
        overlays = sorted({p.overlay for p in probes})
        lines.append(
            f"  {len(probes)} probe(s) over {'/'.join(overlays)}: "
            f"{checked} node-checks current, {stale} stale, {cold} cold "
            f"(max staleness {worst} version(s))"
        )
    else:
        lines.append("  (none recorded)")
    lines.append("")

    lines.append("delivery accounting:")
    audit_counters = [c for c in counters if c["name"].startswith("audit.")]
    if audit_counters:
        for counter in sorted(
            audit_counters,
            key=lambda c: (c["name"], sorted(c.get("labels", {}).items())),
        ):
            label = _label_suffix(counter.get("labels", {}))
            lines.append(f"  {counter['name']}{label}: {counter['value']}")
    else:
        lines.append("  (no audit counters)")
    lines.append("")

    lines.append("SLO histograms (p50/p95/p99):")
    slo = [h for h in histograms if h["name"] in SLO_HISTOGRAMS]
    for histogram in sorted(slo, key=lambda h: h["name"]):
        label = _label_suffix(histogram.get("labels", {}))
        if histogram.get("count", 0):
            lines.append(
                f"  {histogram['name']}{label}: "
                f"{histogram.get('p50', 0.0):.4g}/"
                f"{histogram.get('p95', 0.0):.4g}/"
                f"{histogram.get('p99', 0.0):.4g} "
                f"(n={histogram['count']}, max={histogram.get('max', 0.0):.4g})"
            )
        else:
            lines.append(f"  {histogram['name']}{label}: no observations")
    if not slo:
        lines.append("  (none)")
    return "\n".join(lines) + "\n"


def report_from_auditor(auditor, source: str = "") -> str:
    """Render the health report straight from a live auditor."""
    registry = auditor._registry
    counters = [
        {"name": c.name, "labels": dict(c.labels), "value": c.value}
        for c in registry.counters()
    ]
    histograms = []
    for histogram in registry.histograms():
        summary = histogram.summary()
        histograms.append(
            {
                "name": histogram.name,
                "labels": dict(histogram.labels),
                "count": summary.count,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "max": summary.maximum,
            }
        )
    return render_health_report(
        auditor.violations, auditor.probes, counters, histograms, source=source
    )


def report_from_dump(dump, source: str = "") -> tuple[str, bool]:
    """Render from a loaded JSONL dump; returns ``(text, has_audit_data)``.

    ``has_audit_data`` is False when the export contains no audit
    records at all (no probes, no violations, no ``audit.*`` counters)
    — the run was not audited, which ``repro audit`` reports as a
    configuration error rather than a clean bill of health.
    """
    has_audit_data = bool(
        dump.violations
        or dump.probes
        or any(c["name"].startswith("audit.") for c in dump.counters)
    )
    text = render_health_report(
        dump.violations, dump.probes, dump.counters, dump.histograms,
        source=source,
    )
    return text, has_audit_data
