"""Execution planning: canonicalize, dedupe, group, pre-solve.

:func:`build_execution_plan` turns a flat sequence of run specs
(:class:`~repro.experiments.specs.ExperimentSpec` objects or plain mappings)
into an :class:`ExecutionPlan`:

* **Store dedupe before dispatch.**  With a run store active, every eligible
  spec is fingerprinted and looked up in the parent; hits never reach a
  scheduler backend, and duplicate fingerprints *within* the plan execute
  once (the copies alias the primary's result).
* **Lockstep task groups.**  Pending specs sharing a workload and a seed —
  the shape of every figure panel — are grouped into one
  :class:`PlanTask`, so any backend can generate the shared trace once and
  replay it through each algorithm.
* **SO-BMA pre-solve.**  For each group, the aggregate demand of its
  offline ``so-bma`` specs is solved once at the group's ``b_max`` in the
  parent, and the solved rounds travel with the task
  (:func:`repro.matching.static_solver.export_solver_rounds`).  Workers
  seed their per-process solver memo from the payload, so no worker ever
  re-solves an aggregate the parent already solved.  The trace the
  pre-solve generated stays in the parent's trace cache
  (:func:`repro.exec.runtime.share_trace`), so serial execution does not
  generate it a second time.

The plan is execution-policy-free: scheduler backends
(:mod:`repro.exec.scheduler`) decide *where* tasks run, the plan only says
*what* runs and what is already known.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..experiments.observers import SimulationObserver
from ..experiments.specs import ExperimentSpec
from ..simulation.results import RunResult
from ..simulation.runner import AnySpec, as_experiment_spec
from ..store.fingerprint import fingerprint_spec
from ..store.run_store import RunStore, resolve_store

__all__ = [
    "ON_ERROR_MODES",
    "RunFailure",
    "PlanTask",
    "ExecutionPlan",
    "build_execution_plan",
]

#: Valid ``on_error`` policies: ``"raise"`` propagates the first failure
#: (legacy behaviour), ``"collect"`` returns a :class:`RunFailure` record in
#: the failing spec's slot and keeps every completed result.
ON_ERROR_MODES = ("raise", "collect")


@dataclass(frozen=True)
class RunFailure:
    """Per-spec error record returned under ``on_error="collect"``.

    Occupies the failing spec's slot in the results list so completed work
    is never discarded; ``message`` carries the worker-side error with the
    failing spec's JSON (the :class:`~repro.errors.WorkerExecutionError`
    contract), ``attempts`` how many executions were tried.
    """

    index: int
    spec: Optional[Dict[str, Any]]
    error_type: str
    message: str
    attempts: int = 1
    scheduler_backend: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "index": self.index,
            "spec": self.spec,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "scheduler_backend": self.scheduler_backend,
        }


@dataclass(frozen=True)
class PlanTask:
    """One schedulable unit: specs sharing a workload and a seed.

    ``specs`` are canonicalized, seeded, single-repetition
    :class:`ExperimentSpec` objects; ``indices`` are their positions in the
    plan's input.  ``solver`` carries zero or more
    :func:`~repro.matching.static_solver.export_solver_rounds` payloads
    (one per distinct SO-BMA backend/topology in the group); pre-built
    traces never travel — workers rebuild them deterministically from the
    specs.
    """

    task_id: str
    indices: Tuple[int, ...]
    specs: Tuple[ExperimentSpec, ...]
    fingerprints: Tuple[Optional[str], ...]
    group: str
    solver: Tuple[Dict[str, Any], ...] = ()

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe task description (what travels to queue workers)."""
        return {
            "version": 1,
            "id": self.task_id,
            "indices": list(self.indices),
            "specs": [spec.to_dict() for spec in self.specs],
            "fingerprints": list(self.fingerprints),
            "group": self.group,
            "solver": [dict(p) for p in self.solver],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PlanTask":
        """Inverse of :meth:`to_payload` (the in-memory ``trace`` is not shipped)."""
        return cls(
            task_id=str(payload["id"]),
            indices=tuple(int(i) for i in payload["indices"]),
            specs=tuple(ExperimentSpec.from_dict(d) for d in payload["specs"]),
            fingerprints=tuple(payload["fingerprints"]),
            group=str(payload.get("group", "")),
            solver=tuple(dict(p) for p in payload.get("solver", ())),
        )


@dataclass
class ExecutionPlan:
    """What to run, what is already known, and how results come back.

    ``specs`` holds every canonicalized input spec (index-aligned with the
    caller's sequence); ``tasks`` the pending work grouped for lockstep
    execution; ``cached`` run-store hits served before dispatch; ``aliases``
    maps duplicate-fingerprint indices to the pending primary that computes
    their shared result.
    """

    specs: List[ExperimentSpec]
    tasks: List[PlanTask]
    cached: Dict[int, RunResult]
    aliases: Dict[int, int]
    fingerprints: List[Optional[str]]
    store: Optional[RunStore]
    on_error: str
    observers: Tuple[SimulationObserver, ...]

    @property
    def n_specs(self) -> int:
        return len(self.specs)

    @property
    def pending_count(self) -> int:
        """Specs that actually need execution (cached and aliased excluded)."""
        return sum(len(task.indices) for task in self.tasks)

    def describe(self) -> Dict[str, Any]:
        """Summary counters (used by CLI progress output and tests)."""
        return {
            "specs": self.n_specs,
            "pending": self.pending_count,
            "cached": len(self.cached),
            "aliased": len(self.aliases),
            "tasks": len(self.tasks),
            "presolved": sum(len(task.solver) for task in self.tasks),
        }


def _store_eligible(spec: ExperimentSpec) -> bool:
    """Whether a run of ``spec`` may interact with a run store at all.

    Unseeded specs draw fresh entropy (nothing stable to address), and
    matching-history collection embeds per-request state the store's JSON
    contract does not cover.
    """
    return spec.seed is not None and not spec.simulation.collect_matching_history


def _group_key(spec: ExperimentSpec) -> Optional[Tuple[str, str, int]]:
    """Grouping key for shared-trace execution, or ``None`` for a solo task.

    Two specs share a trace exactly when their workload
    (:meth:`~repro.experiments.specs.TrafficSpec.workload_key`) and seed
    coincide (the trace seed is spawned from the spec seed alone).
    Unseeded specs draw fresh entropy per run and must never share; a
    workload without a key stays solo too.  A streamed and a materialized
    spec of the same workload share a group.
    """
    key = spec.traffic.workload_key()
    if spec.seed is None or key is None:
        return None
    return key + (spec.seed,)


def _presolve_task(specs: Sequence[ExperimentSpec]) -> Tuple[Dict[str, Any], ...]:
    """Solved SO-BMA rounds for a task group (empty when nothing applies).

    Solves each distinct (effective solver backend, topology) demand once at
    the group's ``b_max``; the exported payloads ship to workers and, as a
    side effect, warm the parent's own solver memo.  Pre-solving is an
    optimisation: any failure here is swallowed so the real execution path
    surfaces the error with full spec context.
    """
    from ..experiments.specs import _algorithm_registry
    from ..matching import static_solver

    offline: List[ExperimentSpec] = []
    for spec in specs:
        if spec.seed is None:
            continue  # the parent's trace draw would differ from the worker's
        try:
            if _algorithm_registry().canonical(spec.algorithm.name) != "so-bma":
                continue
        except Exception:
            continue
        if str(spec.algorithm.params.get("solver", "blossom")).lower() != "blossom":
            continue
        offline.append(spec)
    if not offline:
        return ()
    from .runtime import share_trace

    payloads: List[Dict[str, Any]] = []
    try:
        trace = offline[0].build_trace()
        share_trace(offline[0], trace)
        buckets: "OrderedDict[Tuple[str, str], List[ExperimentSpec]]" = OrderedDict()
        for spec in offline:
            effective = static_solver.resolve_solver_backend(
                spec.algorithm.solver_backend
            )
            topo_key = json.dumps(
                {"name": spec.topology.name, "params": dict(spec.topology.params)},
                sort_keys=True,
                default=repr,
            )
            buckets.setdefault((effective, topo_key), []).append(spec)
        for (effective, _topo_key), bucket in buckets.items():
            spec = bucket[0]
            topology = spec.build_topology(trace)
            algorithm = spec.build_algorithm(topology, spec.run_seeds()[1])
            weights = algorithm.aggregate_demand(trace)
            b_max = max(s.algorithm.b for s in bucket)
            payloads.append(
                static_solver.export_solver_rounds(
                    weights, topology.n_racks, b_max, backend=effective
                )
            )
    except Exception:
        return tuple(payloads)
    return tuple(payloads)


def build_execution_plan(
    specs: Sequence[AnySpec],
    *,
    store=None,
    on_error: str = "raise",
    observers: Sequence[SimulationObserver] = (),
) -> ExecutionPlan:
    """Build the execution plan for ``specs`` (see module docstring).

    Within the library only :func:`~repro.exec.scheduler.run_specs_parallel`
    calls it, followed by :func:`~repro.exec.scheduler.execute_plan`; every
    entry point reaches the planner through that one run path, and the
    planner is the only place the run store is looked up.

    Parameters
    ----------
    specs:
        Runs to plan, in result order: :class:`ExperimentSpec` objects or
        mappings; seeds are taken as-is (the caller owns the repetition/seed
        policy).
    store:
        Run-store policy (:func:`repro.store.resolve_store` semantics).
        With a store, eligible specs are fingerprinted and looked up here —
        before any scheduler sees the plan.
    on_error:
        ``"raise"`` (legacy: first failure propagates) or ``"collect"``
        (failures become :class:`RunFailure` records in the results).
    observers:
        Observers the executing backend should attach.  Observers must see
        every run, so their presence disables store read-hits and duplicate
        aliasing (writes still happen); only the serial backend can honour
        them.
    """
    if on_error not in ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    experiments = [as_experiment_spec(spec) for spec in specs]
    run_store = resolve_store(store)
    observer_tuple = tuple(observers)

    cached: Dict[int, RunResult] = {}
    aliases: Dict[int, int] = {}
    fingerprints: List[Optional[str]] = [None] * len(experiments)
    primary_by_fp: Dict[str, int] = {}
    pending: List[int] = []
    for i, experiment in enumerate(experiments):
        if run_store is not None and _store_eligible(experiment):
            fp = fingerprint_spec(experiment)
            fingerprints[i] = fp
            if not observer_tuple:
                if fp in primary_by_fp:
                    aliases[i] = primary_by_fp[fp]
                    continue
                hit = run_store.get(fp)
                if hit is not None:
                    cached[i] = replace(hit, spec=experiment.to_dict())
                    continue
                primary_by_fp[fp] = i
        pending.append(i)

    groups: "OrderedDict[Tuple[Any, ...], List[int]]" = OrderedDict()
    for i in pending:
        key = _group_key(experiments[i])
        if key is None:
            groups[("solo", i)] = [i]
        else:
            groups.setdefault(("shared",) + key, []).append(i)

    tasks: List[PlanTask] = []
    for k, (key, indices) in enumerate(groups.items()):
        task_specs = tuple(experiments[i] for i in indices)
        if key[0] == "shared":
            label = f"{task_specs[0].traffic.name}/seed={task_specs[0].seed}"
        else:
            label = task_specs[0].label
        solver = _presolve_task(task_specs)
        tasks.append(
            PlanTask(
                task_id=f"t{k:04d}",
                indices=tuple(indices),
                specs=task_specs,
                fingerprints=tuple(fingerprints[i] for i in indices),
                group=label,
                solver=solver,
            )
        )

    return ExecutionPlan(
        specs=experiments,
        tasks=tasks,
        cached=cached,
        aliases=aliases,
        fingerprints=fingerprints,
        store=run_store,
        on_error=on_error,
        observers=observer_tuple,
    )
