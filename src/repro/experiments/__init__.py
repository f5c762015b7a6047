"""Experiment harnesses reproducing the paper's evaluation (Section 5).

- :mod:`repro.experiments.config` -- one dataclass capturing every knob
  of a simulation run (defaults = the paper's Section 5.1 parameters).
- :mod:`repro.experiments.runner` -- generates the run's trace, builds
  the stack (kernel, network, ring, mapping, pub/sub layer), runs it and
  returns a :class:`~repro.experiments.runner.RunResult`.
- :mod:`repro.experiments.figures` -- one function per paper figure
  (Figs. 5-9), each returning the rows/series the paper plots.
- :mod:`repro.experiments.report` -- plain-text table rendering.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.report import render_table

__all__ = ["ExperimentConfig", "RunResult", "run_experiment", "render_table"]
