"""Smoke-run the fast examples (the slow ones are exercised manually;
all example outputs are recorded in the repository discussion docs)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart_runs(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "message accounting" in out
    assert "notified" in out


@pytest.mark.skipif(sys.platform == "win32", reason="posix-only timing")
def test_news_alerts_runs(capsys):
    run_example("news_alerts.py")
    out = capsys.readouterr().out
    assert "disjunction dedup" in out
    assert "lease lapsed" in out


def test_churn_resilience_runs(capsys):
    # State transfer on joins and leaves, then replica promotion after
    # every rendezvous node crashes.
    run_example("churn_resilience.py")
    out = capsys.readouterr().out
    assert "still reached the subscriber via promoted replicas" in out


def test_self_organization_runs(capsys):
    # Protocol-level Chord: stabilization heals the ring under churn.
    run_example("self_organization.py")
    out = capsys.readouterr().out
    assert "ring healed via successor lists" in out
