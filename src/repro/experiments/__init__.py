"""Experiment harness regenerating every figure and table of §4.

Modules:

* :mod:`repro.experiments.api` — the experiment API: declarative
  :class:`~repro.experiments.api.ExperimentSpec`\\ s, the
  ``@experiment`` registry and the figure-wide
  :class:`~repro.experiments.api.ExperimentRunner`.
* :mod:`repro.experiments.defaults` — Table 4.1 parameter settings and
  storage-scheme builders.
* :mod:`repro.experiments.runner` — result containers, per-point
  evaluation and ASCII tables.
* ``fig4_1`` … ``fig4_8``, ``table4_2`` — one module per paper
  artifact, each registering a spec (``@experiment("fig4_1")`` …).
* :mod:`repro.experiments.ablations` — group commit, asynchronous
  replacement, deferred NVEM propagation, NVEM migration modes.
* :mod:`repro.experiments.trace_setup` — shared setup for §4.6/4.7.
* :mod:`repro.experiments.export` — JSON/CSV result exports.

Run everything and write EXPERIMENTS.md tables::

    python -m repro.experiments.report_all

or through the CLI registry surface::

    python -m repro experiment list
    python -m repro experiment run --all --profile fast --parallel
"""

from repro.experiments.api import (
    CurveSpec,
    ExperimentRunner,
    ExperimentSpec,
    SweepProfile,
    all_experiments,
    experiment,
    experiment_ids,
    get_experiment,
)
from repro.experiments.runner import (
    ExperimentResult,
    Series,
    SeriesPoint,
)

__all__ = [
    "CurveSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "Series",
    "SeriesPoint",
    "SweepProfile",
    "all_experiments",
    "experiment",
    "experiment_ids",
    "get_experiment",
]
