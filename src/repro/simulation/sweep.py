"""Parameter sweeps as spec expansion.

A sweep is nothing but a list of :class:`~repro.experiments.specs.ExperimentSpec`
objects — usually produced by :func:`~repro.experiments.specs.expand_grid` —
executed by :func:`run_experiments`, which handles per-spec repetitions
(seeds spawned from each spec's base seed) and aggregation, and runs the
expanded grid with one :func:`~repro.exec.scheduler.run_specs_parallel`
call.  :func:`run_sweep` keeps the classic
:class:`~repro.config.SweepConfig` entry point, now implemented as a grid
expansion over ``algorithm.name`` × ``algorithm.b`` × ``algorithm.alpha``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..config import SweepConfig
from ..errors import ConfigurationError
from ..experiments.observers import SimulationObserver
from ..experiments.specs import ExperimentSpec, expand_grid
from .results import AggregateResult, RunResult, aggregate_runs
from .runner import AnySpec, as_experiment_spec

__all__ = ["run_experiments", "run_sweep"]


def run_experiments(
    specs: Sequence[AnySpec],
    n_workers: Optional[int] = None,
    observers: Iterable[SimulationObserver] = (),
    store=None,
    on_error: str = "raise",
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> List:
    """Execute each spec with its own repeat/seed policy and aggregate.

    Every spec contributes ``spec.repeats`` runs, seeded by
    :meth:`~repro.experiments.specs.ExperimentSpec.repetition_seeds` (spawned
    from the spec's base seed).  Results come back in spec order.

    Parameters
    ----------
    specs:
        The experiments (:class:`~repro.experiments.specs.ExperimentSpec`
        objects or plain spec dicts).
    n_workers:
        Worker count; defaults to ``REPRO_WORKERS`` if set, else 1.  Values
        above 1 shard the expanded runs over the resolved scheduler backend.
    observers:
        Attached to every run when executing on the serial backend;
        observers are not shipped to pool or queue workers.
    store:
        Run-store policy (see :func:`repro.store.resolve_store`; ``None``
        defers to ``REPRO_RUN_STORE``, ``False`` forces cold runs).  With a
        store, each expanded (spec, repetition-seed) run is looked up by
        the planner before computing and written back after, making
        repeated sweeps incremental — only cells whose spec or seed changed
        recompute.  Hits are bit-identical to the cold runs that produced
        them.
    on_error:
        ``"raise"`` (default) aborts on the first failing run with
        :class:`~repro.errors.WorkerExecutionError`; ``"collect"`` keeps
        going and returns a :class:`~repro.exec.plan.RunFailure` record in
        the failing *spec's* slot (the spec's first failed repetition) so a
        long sweep reports every broken cell in one pass.
    backend:
        Scheduler backend name (``"serial"``, ``"pool"``, ``"queue"``);
        ``None`` picks serial for one worker and the pool otherwise.
    queue_dir:
        Queue directory for ``backend="queue"`` (temporary when omitted).
    """
    experiments = [as_experiment_spec(spec) for spec in specs]
    if not experiments:
        return []
    expanded: List[ExperimentSpec] = []
    group_sizes: List[int] = []
    for experiment in experiments:
        seeds = experiment.repetition_seeds()
        group_sizes.append(len(seeds))
        expanded.extend(experiment.with_seed(seed) for seed in seeds)

    from ..exec import resolve_worker_count, run_specs_parallel

    flat = run_specs_parallel(
        expanded,
        n_workers=resolve_worker_count(n_workers, fallback=1),
        store=store,
        on_error=on_error,
        backend=backend,
        queue_dir=queue_dir,
        observers=observers,
    )

    results: List = []
    cursor = 0
    for size in group_sizes:
        group = flat[cursor : cursor + size]
        cursor += size
        failures = [run for run in group if not isinstance(run, RunResult)]
        if failures:
            # Under "collect" a broken cell yields its first failure record
            # in place of an aggregate (aggregation needs every repetition).
            results.append(failures[0])
        else:
            results.append(aggregate_runs(group))
    return results


def run_sweep(
    sweep: SweepConfig,
    workload: str,
    workload_kwargs: Optional[Mapping[str, Any]] = None,
    topology: str = "fat-tree",
    topology_kwargs: Optional[Mapping[str, Any]] = None,
    repetitions: int = 1,
    base_seed: int = 0,
    checkpoints: int = 10,
    n_workers: Optional[int] = None,
    observers: Iterable[SimulationObserver] = (),
    solver_backend: Optional[str] = None,
    store=None,
    streaming: bool = False,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> List[AggregateResult]:
    """Run every (algorithm, b, alpha) combination of ``sweep`` on one workload.

    Parameters
    ----------
    sweep:
        The cross-product description of algorithms and parameters.
    workload, workload_kwargs:
        Registered workload name and its generator arguments.
    topology, topology_kwargs:
        Registered topology name and constructor arguments.
    repetitions, base_seed, checkpoints:
        Execution parameters; repetition seeds are spawned from ``base_seed``
        via :class:`numpy.random.SeedSequence` so every configuration replays
        the same per-repetition workloads.
    n_workers:
        Worker count (defaults to ``REPRO_WORKERS`` if set, else 1); values
        above 1 distribute the individual runs over the scheduler backend.
    observers:
        Attached to runs on the serial backend only.
    solver_backend:
        Static blossom kernel for SO-BMA configurations (``None`` = library
        default).  When the grid sweeps several ``b`` values for ``so-bma``
        on a shared workload, in-process runs share nested solver prefixes:
        the demand-fingerprint memo in
        :mod:`repro.matching.static_solver` solves ``max(b_values)`` blossom
        rounds once instead of re-solving every prefix per ``b``.
    store:
        Run-store policy, forwarded to :func:`run_experiments` (``None``
        defers to ``REPRO_RUN_STORE``, ``False`` forces cold runs).
    streaming, chunk_size:
        Replay each run's workload as a lazy trace stream of
        ``chunk_size``-request segments (bounded memory).  Results and
        store fingerprints are bit-identical to materialized runs.
    on_error, backend, queue_dir:
        Forwarded to :func:`run_experiments`: error policy and scheduler
        backend selection.
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    base = ExperimentSpec(
        algorithm={"name": sweep.algorithms[0], "b": int(sweep.b_values[0]),
                   "alpha": float(sweep.alpha_values[0]),
                   "solver_backend": solver_backend},
        traffic={"name": workload, "params": dict(workload_kwargs or {}),
                 "streaming": streaming, "chunk_size": chunk_size},
        topology={"name": topology, "params": dict(topology_kwargs or {})},
        simulation={"checkpoints": checkpoints},
        repeats=repetitions,
        seed=base_seed,
    )
    specs = expand_grid(
        base,
        {
            "algorithm.name": list(sweep.algorithms),
            "algorithm.b": [int(b) for b in sweep.b_values],
            "algorithm.alpha": [float(a) for a in sweep.alpha_values],
        },
    )
    return run_experiments(
        specs,
        n_workers=n_workers,
        observers=observers,
        store=store,
        on_error=on_error,
        backend=backend,
        queue_dir=queue_dir,
    )
