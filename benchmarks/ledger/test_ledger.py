"""Smoke test of the performance ledger.

Lives outside the tier-1 ``testpaths`` so tier-1 time is unchanged; run
it with ``python -m pytest benchmarks/ledger/test_ledger.py``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "smoke ok" in done.stdout
