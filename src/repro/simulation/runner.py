"""Experiment execution: specs in, results out.

The canonical description of a run is an
:class:`~repro.experiments.specs.ExperimentSpec`;
:func:`execute_experiment_spec` turns one repetition of a spec into a
:class:`~repro.simulation.results.RunResult` (stamped with the originating
spec for provenance).  :class:`ExperimentRunner` layers the paper's
methodology on top: repetitions with spawned seeds, averaging, and shared
traces for algorithm comparisons.  Every entry point also accepts a spec's
mapping form (:meth:`ExperimentSpec.from_dict`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..experiments.observers import SimulationObserver
from ..experiments.specs import ExperimentSpec, spawn_seeds
from ..store.fingerprint import fingerprint_spec
from ..store.run_store import RunStore, resolve_store
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


def _store_eligible(spec: ExperimentSpec, store: Optional[RunStore]) -> bool:
    """Whether a run of ``spec`` may interact with ``store`` at all.

    Unseeded specs draw fresh entropy (nothing stable to address), and
    matching-history collection embeds per-request state the store's JSON
    contract does not cover.
    """
    return (
        store is not None
        and spec.seed is not None
        and not spec.simulation.collect_matching_history
    )


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

    Parameters
    ----------
    spec:
        The experiment description (``repeats`` is ignored here — this is one
        run; see :class:`ExperimentRunner` or :func:`~repro.simulation.sweep.run_experiments`).
    trace:
        Optionally a pre-generated trace — or a
        :class:`~repro.traffic.stream.TraceStream` — so several algorithms
        can share the exact same workload, as the paper's figures require.
        If omitted the workload is generated from the spec: lazily as a
        stream when ``spec.traffic.streaming`` is set (bounded memory,
        bit-identical result and store fingerprint), materialized otherwise.
    observers, validate:
        Forwarded to :func:`~repro.simulation.engine.run_simulation`.
    store:
        Run-store policy (see :func:`repro.store.resolve_store`): ``None``
        defers to the ``REPRO_RUN_STORE`` environment default, ``False``
        forces a cold run, a path/:class:`~repro.store.StoreConfig`/
        :class:`~repro.store.RunStore` selects a store explicitly.  With a
        store active and no explicit ``trace``, the store is checked before
        computing — a hit returns the stored result (bit-identical to the
        cold run that produced it, re-stamped with this spec's provenance)
        without any simulation work — and a cold result is written back
        after.  Hits are bypassed when observers are attached or
        ``validate`` is set (those ask for the run's side effects, not just
        its result).  An explicit ``trace`` disables the store here because
        this function cannot prove the trace matches the spec; the runner's
        shared-trace paths do their own store handling with that knowledge.
    """
    spec.validate()
    run_store = resolve_store(store) if trace is None else None
    observers = tuple(observers)
    eligible = _store_eligible(spec, run_store)
    fingerprint: Optional[str] = None
    if eligible:
        fingerprint = fingerprint_spec(spec)
        if not observers and not validate:
            cached = run_store.get(fingerprint)
            if cached is not None:
                return replace(cached, spec=spec.to_dict())
    trace_seed, algo_seed = spec.run_seeds()
    if trace is None:
        trace = (
            spec.build_stream(trace_seed)
            if spec.traffic.streaming
            else spec.build_trace(trace_seed)
        )
    topology = spec.build_topology(trace)
    algorithm = spec.build_algorithm(topology, algo_seed)
    sim_config = replace(spec.simulation, seed=spec.seed)
    result = run_simulation(
        algorithm, trace, sim_config, validate=validate, observers=observers
    )
    result = replace(result, spec=spec.to_dict())
    if eligible:
        run_store.put(result, fingerprint=fingerprint)
    return result


class ExperimentRunner:
    """Runs groups of specs sharing a workload, with repetitions and averaging.

    The runner drives the repeat/seed policy: each repetition gets a seed
    spawned from ``base_seed`` via :class:`numpy.random.SeedSequence` (the
    paper repeats every simulation five times and averages).  A spec's own ``repeats``/``seed`` fields are superseded by the runner's
    policy here (use :meth:`ExperimentSpec.run` or
    :func:`~repro.simulation.sweep.run_experiments` for spec-driven runs).

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
        experiment = as_experiment_spec(spec)
        runs = [
            execute_experiment_spec(
                experiment.with_seed(seed),
                observers=self.observers,
                store=self.store,
            )
            for seed in self.repetition_seeds()
        ]
        return aggregate_runs(runs)

    def _execute_grid(
        self,
        experiments: Sequence[ExperimentSpec],
        n_workers: Optional[int],
        backend: Optional[str],
        queue_dir: Optional[str],
    ) -> List[RunResult]:
        """Plan and execute the repetition-major (seed × spec) grid.

        The shared engine behind :meth:`run_many` and
        :meth:`compare_on_shared_trace`: builds an
        :class:`~repro.exec.plan.ExecutionPlan` (store hits served before
        dispatch, specs sharing a workload and seed grouped into one task,
        offline SO-BMA demand pre-solved once) and runs it on the resolved
        scheduler backend.  Observers ride along only on the serial
        backend — they cannot cross a process boundary — matching the
        long-standing pool semantics.
        """
        from ..exec import (
            build_execution_plan,
            execute_plan,
            resolve_backend_name,
            resolve_worker_count,
        )

        workers = resolve_worker_count(n_workers, fallback=1)
        name = resolve_backend_name(backend, workers)
        seeds = self.repetition_seeds()
        # Repetition-major: specs sharing a workload and a repetition seed
        # land consecutively, grouping into one shared-trace task.
        grid = [
            experiment.with_seed(seed)
            for seed in seeds
            for experiment in experiments
        ]
        plan = build_execution_plan(
            grid,
            store=self.store,
            observers=self.observers if name == "serial" else (),
        )
        return execute_plan(plan, backend=name, n_workers=workers, queue_dir=queue_dir)

    def run_many(
        self,
        specs: Sequence[AnySpec],
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        queue_dir: Optional[str] = None,
    ) -> List[AggregateResult]:
        """Run several configurations, optionally sharded over a scheduler backend.

        With ``n_workers > 1`` (or an explicit ``backend``) the individual
        (spec × repetition) runs are distributed by
        :func:`~repro.exec.scheduler.execute_plan`; results are
        bit-identical to sequential execution (each worker rebuilds its
        trace deterministically from the spec) but observers are not shipped
        off the serial backend.
        """
        if not specs:
            return []
        experiments = [as_experiment_spec(spec) for spec in specs]
        flat = self._execute_grid(experiments, n_workers, backend, queue_dir)
        n_seeds = self.repetitions
        return [
            aggregate_runs(
                [flat[r * len(experiments) + i] for r in range(n_seeds)]
            )
            for i in range(len(experiments))
        ]

    def compare_on_shared_trace(
        self,
        specs: Sequence[AnySpec],
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        queue_dir: Optional[str] = None,
    ) -> Dict[str, AggregateResult]:
        """Run several algorithm specs on the *same* generated workloads.

        All specs must name the same workload and workload parameters; per
        repetition one trace is generated and every algorithm replays it —
        the setup behind each panel of the paper's figures.  Returns a dict
        keyed by ``"<algorithm> (b: <b>)"``.

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
        if any(e.traffic != experiments[0].traffic for e in experiments[1:]):
            raise ConfigurationError(
                "compare_on_shared_trace requires all specs to share the same workload"
            )
        flat = self._execute_grid(experiments, n_workers, backend, queue_dir)
        per_spec_runs: Dict[int, List[RunResult]] = {i: [] for i in range(len(experiments))}
        for j, result in enumerate(flat):
            per_spec_runs[j % len(experiments)].append(result)
        results: Dict[str, AggregateResult] = {}
        for i in range(len(experiments)):
            agg = aggregate_runs(per_spec_runs[i])
            results[agg.label] = agg
        return results
