"""Discrete-event simulation kernel.

This package provides the deterministic event-driven substrate on which
the Chord overlay and the content-based pub/sub layer run:

- :class:`~repro.sim.kernel.Simulator` -- the event loop: a priority
  queue of timestamped callbacks with a virtual clock.  A scheduled
  callback cannot be taken back.
- :class:`~repro.sim.process.PeriodicTimer` -- a recurring timer built
  on the kernel.
- :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random streams so that components draw from decoupled sequences and
  experiments are reproducible.

All simulated time is expressed in **seconds** as floats. The paper's
default message delay of 50 ms is therefore ``0.05``.
"""

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTimer
from repro.sim.rng import RandomStreams

__all__ = ["Simulator", "PeriodicTimer", "RandomStreams"]
