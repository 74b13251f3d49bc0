"""Simulation engine, experiment runner and result containers.

The engine replays a trace through an online b-matching algorithm, recording
cumulative routing cost, reconfiguration cost and wall-clock execution time at
evenly spaced checkpoints — exactly the series plotted in the paper's figures
(routing cost vs. number of requests, execution time vs. number of requests).

Experiments are described declaratively by
:class:`~repro.experiments.specs.ExperimentSpec`;
:func:`execute_experiment_spec`, :class:`ExperimentRunner`,
:func:`run_experiments` and :func:`run_sweep` all execute them through one
run path, :func:`run_specs_parallel` (the plan -> scheduler -> results plane
stack in :mod:`repro.exec`).
"""

from .results import AggregateResult, CheckpointSeries, RunResult, aggregate_runs
from .engine import log_spaced_checkpoints, run_simulation
from .timer import Timer
from .runner import ExperimentRunner, as_experiment_spec, execute_experiment_spec
from .sweep import run_experiments, run_sweep
from ..exec.scheduler import run_specs_parallel

__all__ = [
    "CheckpointSeries",
    "RunResult",
    "AggregateResult",
    "aggregate_runs",
    "run_simulation",
    "log_spaced_checkpoints",
    "Timer",
    "ExperimentRunner",
    "as_experiment_spec",
    "execute_experiment_spec",
    "run_experiments",
    "run_sweep",
    "run_specs_parallel",
]
