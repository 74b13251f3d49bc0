"""Experiment execution: specs in, results out.

The canonical description of a run is an
:class:`~repro.experiments.specs.ExperimentSpec`.  Every entry point here
runs through the one run path, :func:`repro.exec.run_specs_parallel`
(plan -> scheduler -> results plane, which owns run-store lookups and
writes): :func:`execute_experiment_spec` runs one repetition of a spec as a
one-spec serial plan, and :class:`ExperimentRunner` layers the paper's
methodology on top: repetitions with spawned seeds, averaging, and shared
traces for algorithm comparisons.  Every entry point also accepts a spec's
mapping form (:meth:`ExperimentSpec.from_dict`).

:func:`_simulate_spec` is the compute body every backend ends in (through
:func:`repro.exec.runtime.run_task`): it builds the topology and algorithm
(and the stream, when not handed a trace), replays them with
:func:`run_simulation`, and stamps the spec.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..experiments.observers import SimulationObserver, ValidationObserver
from ..experiments.specs import ExperimentSpec, spawn_seeds
from ..traffic.base import Trace
from ..traffic.stream import TraceStream
from .engine import run_simulation
from .results import AggregateResult, RunResult, aggregate_runs

__all__ = [
    "AnySpec",
    "ExperimentRunner",
    "execute_experiment_spec",
    "as_experiment_spec",
]


AnySpec = Union[ExperimentSpec, Mapping[str, Any]]


def as_experiment_spec(spec: AnySpec) -> ExperimentSpec:
    """Normalise an :class:`ExperimentSpec` or its mapping form to the former."""
    if isinstance(spec, ExperimentSpec):
        return spec
    if isinstance(spec, Mapping):
        return ExperimentSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected an ExperimentSpec or mapping, got {type(spec).__name__}"
    )


def _simulate_spec(
    spec: ExperimentSpec,
    trace: Optional[Union[Trace, TraceStream]] = None,
    observers: Sequence[SimulationObserver] = (),
    validate: bool = False,
) -> RunResult:
    """Compute one repetition of ``spec`` on ``trace``: no store, no scheduler.

    ``trace=None`` streams the workload from the spec (bounded memory).
    """
    trace_seed, algo_seed = spec.run_seeds()
    if trace is None:
        trace = spec.build_stream(trace_seed)
    topology = spec.build_topology(trace)
    algorithm = spec.build_algorithm(topology, algo_seed)
    sim_config = replace(spec.simulation, seed=spec.seed)
    result = run_simulation(
        algorithm, trace, sim_config, validate=validate, observers=observers
    )
    return replace(result, spec=spec.to_dict())


def execute_experiment_spec(
    spec: ExperimentSpec,
    trace: Optional[Union[Trace, TraceStream]] = None,
    observers: Iterable[SimulationObserver] = (),
    validate: bool = False,
    store=None,
) -> RunResult:
    """Execute one repetition of ``spec`` and return its :class:`RunResult`.

    Trace and algorithm randomness use sub-seeds spawned from ``spec.seed``
    (see :meth:`ExperimentSpec.run_seeds`) so the two streams are decoupled
    but fully reproducible.  The returned result carries ``spec.to_dict()``
    in its ``spec`` field and ``spec.seed`` as its recorded seed.

    Without an explicit ``trace`` the run is a one-spec plan on the serial
    backend (:func:`repro.exec.run_specs_parallel`), exactly like every
    other entry point: the result carries ``extra["scheduler_backend"]`` and
    ``extra["attempts"]``, a materialized trace stays in the per-process
    trace cache, and an error raised while the run executes arrives as
    :class:`~repro.errors.WorkerExecutionError` with the spec's JSON in the
    message.  Spec validation errors raise unwrapped, before planning.

    Parameters
    ----------
    spec:
        The experiment description (``repeats`` is ignored here — this is one
        run; see :class:`ExperimentRunner` or :func:`~repro.simulation.sweep.run_experiments`).
    trace:
        Optionally a pre-generated trace — or a
        :class:`~repro.traffic.stream.TraceStream` — so several algorithms
        can share the exact same workload.  The run is then computed
        directly and the store is never consulted, because this function
        cannot prove the trace matches the spec.  If omitted the workload
        is generated from the spec: lazily as a stream when
        ``spec.traffic.streaming`` is set (bounded memory, bit-identical
        result and store fingerprint), materialized otherwise.
    observers, validate:
        Attached to the run; ``validate`` adds a
        :class:`~repro.experiments.observers.ValidationObserver`.
    store:
        Run-store policy (see :func:`repro.store.resolve_store`): ``None``
        defers to the ``REPRO_RUN_STORE`` environment default, ``False``
        forces a cold run, a path/:class:`~repro.store.StoreConfig`/
        :class:`~repro.store.RunStore` selects a store explicitly.  The
        planner serves a hit (bit-identical to the cold run that produced
        it, re-stamped with this spec's provenance) without any simulation
        work and writes a cold result back.  Observers and ``validate``
        bypass reads but still write; unseeded specs and
        matching-history specs are never stored.
    """
    spec.validate()
    observers = tuple(observers)
    if trace is not None:
        return _simulate_spec(spec, trace, observers, validate)
    from ..exec import run_specs_parallel

    if validate:
        observers += (ValidationObserver(),)
    [result] = run_specs_parallel(
        [spec], n_workers=1, store=store, backend="serial", observers=observers
    )
    return result


class ExperimentRunner:
    """Runs groups of specs sharing a workload, with repetitions and averaging.

    The runner drives the repeat/seed policy: each repetition gets a seed
    spawned from ``base_seed`` via :class:`numpy.random.SeedSequence` (the
    paper repeats every simulation five times and averages).  A spec's own
    ``repeats``/``seed`` fields are superseded by the runner's policy here
    (use :meth:`ExperimentSpec.run` or
    :func:`~repro.simulation.sweep.run_experiments` for spec-driven runs).
    :meth:`run` and :meth:`compare_on_shared_trace` are :meth:`run_many`,
    which makes one :func:`~repro.exec.scheduler.run_specs_parallel` call
    for the whole grid.

    Parameters
    ----------
    repetitions:
        Number of independent repetitions per configuration (the paper uses
        five); each repetition uses a different spawned seed for both the
        workload and the algorithm randomness.
    base_seed:
        Seed from which repetition seeds are spawned.
    observers:
        Observers attached to every run the runner executes.
    store:
        Run-store policy applied to every run (see
        :func:`repro.store.resolve_store`): ``None`` defers to the
        ``REPRO_RUN_STORE`` environment default, ``False`` forces cold
        runs, a path/config/:class:`~repro.store.RunStore` selects one
        explicitly.  With a store, repeated grids are incremental: cells
        whose (spec, seed) fingerprint is already stored are served from
        disk bit-identically, and only dirty cells simulate.
    """

    def __init__(
        self,
        repetitions: int = 1,
        base_seed: int = 0,
        observers: Iterable[SimulationObserver] = (),
        store=None,
    ):
        if repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
        self.repetitions = repetitions
        self.base_seed = base_seed
        self.observers = tuple(observers)
        self.store = store

    def repetition_seeds(self) -> List[int]:
        """The spawned seeds, one per repetition (deterministic in ``base_seed``)."""
        return spawn_seeds(self.base_seed, self.repetitions)

    def run(self, spec: AnySpec) -> AggregateResult:
        """Run one configuration for all repetitions and average the results."""
        return self.run_many([spec])[0]

    def run_many(
        self,
        specs: Sequence[AnySpec],
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        queue_dir: Optional[str] = None,
    ) -> List[AggregateResult]:
        """Run several configurations, optionally sharded over a scheduler backend.

        The repetition-major (seed × spec) grid goes through
        :func:`~repro.exec.scheduler.run_specs_parallel`: store hits are
        served before dispatch, specs sharing a workload and seed run as one
        shared-trace task, and offline SO-BMA demand is pre-solved once.
        ``n_workers`` defaults to ``REPRO_WORKERS``, else 1.  With
        ``n_workers > 1`` (or an explicit ``backend``) the individual runs
        are distributed; results are bit-identical to sequential execution
        (each worker rebuilds its trace deterministically from the spec) but
        observers ride along only on the serial backend.
        """
        if not specs:
            return []
        from ..exec import resolve_worker_count, run_specs_parallel

        experiments = [as_experiment_spec(spec) for spec in specs]
        # Repetition-major: specs sharing a workload and a repetition seed
        # land consecutively, grouping into one shared-trace task.
        flat = run_specs_parallel(
            [e.with_seed(seed) for seed in self.repetition_seeds() for e in experiments],
            n_workers=resolve_worker_count(n_workers, fallback=1),
            store=self.store,
            backend=backend,
            queue_dir=queue_dir,
            observers=self.observers,
        )
        n = len(experiments)
        return [aggregate_runs(flat[i::n]) for i in range(n)]

    def compare_on_shared_trace(
        self,
        specs: Sequence[AnySpec],
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        queue_dir: Optional[str] = None,
    ) -> Dict[str, AggregateResult]:
        """Run several algorithm specs on the *same* generated workloads.

        All specs must share one workload
        (:meth:`~repro.experiments.specs.TrafficSpec.workload_key`: name up
        to case and JSON generator params; the streaming knobs may differ);
        per repetition one trace is generated and every algorithm replays
        it — the setup behind each panel of the paper's figures.  This is
        :meth:`run_many` keyed by label: a dict keyed by
        ``"<algorithm> (b: <b>)"``.

        SO-BMA specs benefit twice from the static-solver memo in
        :mod:`repro.matching.static_solver`: within a repetition, several
        ``so-bma`` entries differing only in ``b`` aggregate the same shared
        trace, so their iterated blossom solves share nested round prefixes
        (only ``max(b)`` rounds are solved in total), and identical
        (trace, backend) solves across panels or timing rounds in the same
        process are pure cache hits.  Pool workers hold their own per-process
        memo, so sharded runs stay bit-identical to sequential ones.

        With ``n_workers > 1`` (or an explicit ``backend``) the
        (repetition × spec) grid is sharded over a scheduler backend
        (``"pool"`` or ``"queue"``).  Workers rebuild the repetition's trace
        deterministically from their spec (the trace seed is spawned from
        the repetition seed alone, so every spec of a repetition regenerates
        the *same* workload, cached per worker process); costs are therefore
        bit-identical to sequential execution.  Observers are not shipped
        off the serial backend, matching
        :func:`~repro.simulation.sweep.run_experiments`.

        With a run store (the runner's ``store`` policy), each seeded cell
        is looked up before anything is built: a repetition whose cells all
        hit performs **zero** simulation work — the shared trace is not
        even generated — and only miss cells are executed (on the shared
        trace) and written back.  Stored cells are bit-identical to the
        cold runs that produced them, so a warm rebuild of a whole panel
        equals the cold sequential run exactly.  Store reads are bypassed
        when the runner carries observers (they must see every run).
        """
        if not specs:
            raise ConfigurationError("compare_on_shared_trace needs at least one spec")
        experiments = [as_experiment_spec(spec) for spec in specs]
        keys = {e.traffic.workload_key() for e in experiments}
        if len(keys) > 1 or (None in keys and len(experiments) > 1):
            raise ConfigurationError(
                "compare_on_shared_trace requires all specs to share the same "
                "workload (name and JSON generator params)"
            )
        aggregates = self.run_many(experiments, n_workers, backend, queue_dir)
        return {agg.label: agg for agg in aggregates}
