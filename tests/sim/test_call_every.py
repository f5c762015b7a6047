"""The bounded periodic callback used by the audit probes.

The chain is a :class:`~repro.sim.process.PeriodicTimer` with a
``horizon``; its firing cases live in ``test_process.py``.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer


def test_rejects_non_positive_period():
    # A bounded chain is checked like an unbounded one, and a refused
    # timer leaves nothing in the queue.
    sim = Simulator()
    for period in (0.0, -2.0):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, period, lambda: None, horizon=10.0)
    assert sim.pending == 0
    assert sim.run() == 0
