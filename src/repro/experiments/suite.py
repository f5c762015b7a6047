"""Run the whole evaluation and export it.

``run_suite`` executes every figure harness at a configurable scale and
writes one CSV per figure plus a plain-text summary — the "reproduce
the paper" button.  Exposed on the command line as
``python -m repro suite --out-dir results/``.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable

from repro.experiments import figures
from repro.experiments.export import rows_to_csv
from repro.experiments.report import render_table


@dataclasses.dataclass(frozen=True)
class SuiteScale:
    """Workload sizes for one suite run.

    ``QUICK`` finishes in a few minutes on a laptop; ``PAPER``
    approaches the paper's 25 000-subscription memory runs (hours).
    """

    name: str
    subscriptions: int
    publications: int
    memory_subscriptions: int
    node_counts: tuple[int, ...]


QUICK = SuiteScale("quick", 150, 150, 1000, (100, 250, 500, 1000))
DEFAULT = SuiteScale("default", 300, 300, 3000, (100, 250, 500, 1000, 2000, 4000))
PAPER = SuiteScale("paper", 2000, 2000, 25000, (100, 250, 500, 1000, 2000, 4000))

SCALES = {scale.name: scale for scale in (QUICK, DEFAULT, PAPER)}


def _figure_jobs(scale: SuiteScale) -> dict[str, Callable[[], list[dict]]]:
    return {
        "fig5": lambda: figures.figure5(
            subscriptions=scale.subscriptions, publications=scale.publications
        ),
        "fig6": lambda: figures.figure6(
            subscriptions=scale.memory_subscriptions
        ),
        "fig7": lambda: figures.figure7(
            node_counts=scale.node_counts, publications=scale.publications
        ),
        "fig8": lambda: figures.figure8(
            node_counts=scale.node_counts,
            subscriptions=scale.memory_subscriptions,
        ),
        "fig9a": lambda: figures.figure9a(
            subscriptions=scale.subscriptions,
            publications=2 * scale.publications,
        ),
        "fig9b": lambda: figures.figure9b(subscriptions=scale.subscriptions),
        "routing": lambda: figures.baseline_routing(
            publications=max(800, scale.publications)
        ),
    }


def run_suite(
    out_dir: str | Path,
    scale: SuiteScale = QUICK,
    only: tuple[str, ...] | None = None,
    progress: Callable[[str], None] = print,
) -> dict[str, list[dict]]:
    """Run every figure (or the ``only`` subset) and export CSVs.

    Args:
        out_dir: Directory for ``<figure>.csv`` files and ``SUMMARY.txt``.
        scale: Workload sizes (see :data:`SCALES`).
        only: Optional subset of figure names.
        progress: Line sink for progress output.

    Returns:
        The row lists, keyed by figure name.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    jobs = _figure_jobs(scale)
    if only:
        unknown = set(only) - set(jobs)
        if unknown:
            raise ValueError(f"unknown figures: {sorted(unknown)}")
        jobs = {name: jobs[name] for name in only}

    results: dict[str, list[dict]] = {}
    summary_lines = [f"evaluation suite — scale '{scale.name}'", ""]
    for name, job in jobs.items():
        progress(f"running {name} ...")
        started = time.perf_counter()
        rows = job()
        elapsed = time.perf_counter() - started
        results[name] = rows
        rows_to_csv(rows, out_path / f"{name}.csv")
        columns = list(rows[0]) if rows else []
        table = render_table(
            columns,
            [[row.get(c) for c in columns] for row in rows],
            title=f"{name} ({elapsed:.1f}s)",
        )
        summary_lines.append(table)
        summary_lines.append("")
        progress(f"  {name}: {len(rows)} rows in {elapsed:.1f}s")
    (out_path / "SUMMARY.txt").write_text("\n".join(summary_lines))
    return results
