"""The all-figures suite runner (tiny subset for speed)."""

import pytest

from repro.experiments.suite import QUICK, SCALES, SuiteScale, run_suite


def test_scales_registered():
    assert set(SCALES) == {"quick", "default", "paper"}
    assert SCALES["paper"].memory_subscriptions == 25000


def test_run_subset_writes_csv_and_summary(tmp_path):
    tiny = SuiteScale("tiny", 15, 15, 50, (50, 100))
    progress = []
    results = run_suite(
        tmp_path, scale=tiny, only=("fig9b", "fig7"), progress=progress.append
    )
    assert set(results) == {"fig9b", "fig7"}
    assert (tmp_path / "fig9b.csv").exists()
    assert (tmp_path / "fig7.csv").exists()
    summary = (tmp_path / "SUMMARY.txt").read_text()
    assert "fig9b" in summary and "fig7" in summary
    assert any("fig7" in line for line in progress)


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_suite(tmp_path, scale=QUICK, only=("nope",))


def test_cli_report_command(tmp_path, capsys):
    """``repro suite``, the command ``make report`` runs."""
    from repro.cli import main

    # Patch in a tiny scale through the quick path by running only the
    # cheapest figure.
    code = main([
        "suite", "--out-dir", str(tmp_path), "--scale", "quick",
        "--only", "fig9b",
    ])
    assert code == 0
    assert (tmp_path / "fig9b.csv").exists()
    assert "SUMMARY.txt" in {p.name for p in tmp_path.iterdir()}
