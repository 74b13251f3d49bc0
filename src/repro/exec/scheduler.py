"""Scheduler backends: where an :class:`~repro.exec.plan.ExecutionPlan` runs.

:data:`SCHEDULER_BACKENDS` is a :class:`~repro.experiments.registry.Registry`
(typo'd names get "did you mean ...?" suggestions) mapping a backend name to
a plan executor.  Every backend executes work through the same unit,
:func:`repro.exec.runtime.run_task`:

``"serial"``
    In-process execution, one task group at a time.  The only backend that
    honours observers; sequential semantics are the reference every other
    backend must match bit-identically.
``"pool"``
    Process-pool fan-out: groups are split into single-spec tasks in
    group-consecutive order, so one group still spreads across workers
    while chunked dispatch keeps per-worker trace caches warm; each task
    carries its group's pre-solved SO-BMA rounds.
``"queue"``
    The file-based pull scheduler (:mod:`repro.exec.queue`): tasks are JSON
    files claimed via atomic renames, independently launched
    ``repro worker`` processes drain the queue, and expired leases requeue
    with bounded attempts.

:func:`execute_plan` runs a plan on a backend and reassembles results in
input order — the **results plane**: every computed result is stamped with
``extra["scheduler_backend"]`` / ``extra["attempts"]`` provenance and
written through the plan's run store (parent-owned writes for serial/pool;
queue workers write their own results and the parent merges).
:func:`run_specs_parallel` is the one run path every entry point takes:
resolve workers and backend, plan, then execute.

Sharding model: specs travel, objects don't.  A unit of work is a picklable
spec (plain names and numbers); traces, topologies and algorithms are
rebuilt inside the worker from the spec's spawned seeds, so a sharded run is
bit-identical to the same specs executed sequentially.  Workers compute and
return; only the parent (serial/pool) touches the run store.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Union

from ..errors import SimulationError, WorkerExecutionError
from ..experiments.observers import SimulationObserver
from ..experiments.registry import Registry
from ..simulation.results import RunResult
from ..simulation.runner import AnySpec
from .plan import ExecutionPlan, PlanTask, RunFailure, build_execution_plan
from .runtime import TaskPolicy, run_task, stamp_provenance

__all__ = [
    "SCHEDULER_BACKENDS",
    "ENV_WORKERS",
    "ExecOptions",
    "execute_plan",
    "resolve_backend_name",
    "resolve_worker_count",
    "run_specs_parallel",
    "default_worker_count",
    "default_chunksize",
]

#: Environment default for worker counts, in the family of
#: ``REPRO_RUN_STORE``: consulted only when no explicit ``n_workers`` is
#: passed (an explicit argument always wins).
ENV_WORKERS = "REPRO_WORKERS"

#: Tokens treated as "unset" so ``REPRO_WORKERS=off`` reads naturally in
#: wrapper scripts (matching the run store's disable convention).
_ENV_FALSEY = {"", "0", "off", "false", "no", "none", "disabled"}

#: Name -> plan-executor registry for scheduler backends.
SCHEDULER_BACKENDS: Registry = Registry("scheduler backend")

#: Default attempt budget per task on the queue backend (serial/pool default
#: to a single attempt: in-process retries of a deterministic failure would
#: only repeat it, while queue retries also cover worker crashes).
DEFAULT_QUEUE_ATTEMPTS = 3


def resolve_worker_count(
    n_workers: Optional[int], fallback: Optional[int] = 1
) -> Optional[int]:
    """Effective worker count: explicit argument, else ``REPRO_WORKERS``, else fallback."""
    if n_workers is not None:
        if n_workers < 1:
            raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
        return int(n_workers)
    raw = os.environ.get(ENV_WORKERS)
    if raw is None or raw.strip().lower() in _ENV_FALSEY:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        warnings.warn(
            f"ignoring {ENV_WORKERS}={raw!r}: worker count must be an integer >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    return value


def _cpu_workers() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def default_worker_count() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else CPU count minus one."""
    return resolve_worker_count(None, fallback=_cpu_workers())


def default_chunksize(n_specs: int, n_workers: int) -> int:
    """Specs handed to a pool worker at a time when the caller does not pin one.

    Large enough that many small specs amortise task dispatch (and hit the
    per-worker trace/topology caches on consecutive specs), small enough
    that every worker gets several chunks for load balancing.
    """
    return max(1, n_specs // (max(1, n_workers) * 4))


def resolve_backend_name(backend: Optional[str], n_workers: Optional[int]) -> str:
    """Canonical backend name; ``None`` picks serial/pool from the worker count."""
    if backend is None:
        return "serial" if (n_workers is None or n_workers <= 1) else "pool"
    SCHEDULER_BACKENDS.resolve(backend)  # raises with suggestions on unknown names
    return SCHEDULER_BACKENDS.canonical(backend)


@dataclass(frozen=True)
class ExecOptions:
    """Execution knobs a backend may consult (plan-independent policy)."""

    workers: int = 1
    chunksize: Optional[int] = None
    max_attempts: int = 1
    queue_dir: Optional[str] = None
    lease_seconds: Optional[float] = None
    poll_interval: Optional[float] = None
    timeout: Optional[float] = None


class _ResultsPlane:
    """Collects outcomes, stamps provenance, and owns parent-side store writes."""

    def __init__(self, plan: ExecutionPlan, backend: str):
        self.plan = plan
        self.backend = backend
        self.results: Dict[int, RunResult] = dict(plan.cached)
        self.failures: Dict[int, RunFailure] = {}

    def success(self, index: int, result: RunResult, attempts: int) -> None:
        """A result computed under this parent: stamp, store, record."""
        result = stamp_provenance(result, self.backend, attempts)
        fp = self.plan.fingerprints[index]
        if fp is not None and self.plan.store is not None:
            self.plan.store.put(result, fingerprint=fp)
        self.results[index] = result

    def merge(self, index: int, result: RunResult, attempts: int) -> None:
        """A worker-owned result (queue): the worker already stored it; the
        parent only fills entries the worker's store never saw (e.g. a
        store-less queue dir) — identical content either way."""
        result = stamp_provenance(result, self.backend, attempts)
        fp = self.plan.fingerprints[index]
        if (
            fp is not None
            and self.plan.store is not None
            and not self.plan.store.contains(fp)
        ):
            self.plan.store.put(result, fingerprint=fp)
        self.results[index] = result

    def failure(
        self, index: int, message: str, error_type: str, attempts: int
    ) -> None:
        if self.plan.on_error == "raise":
            raise WorkerExecutionError(message)
        self.failures[index] = RunFailure(
            index=index,
            spec=self.plan.specs[index].to_dict(),
            error_type=error_type,
            message=message,
            attempts=int(attempts),
            scheduler_backend=self.backend,
        )

    def deliver(self, index: int, outcome, attempts: int, merge: bool = False) -> None:
        """Route one backend outcome (result or failure record) by type."""
        if isinstance(outcome, RunResult):
            (self.merge if merge else self.success)(index, outcome, attempts)
        else:
            self.failure(index, outcome.message, outcome.error_type, attempts)

    def assemble(self) -> List[Union[RunResult, RunFailure]]:
        """Results in input order, duplicates aliased to their primary."""
        for i, primary in self.plan.aliases.items():
            if primary in self.results:
                self.results[i] = replace(
                    self.results[primary], spec=self.plan.specs[i].to_dict()
                )
            elif primary in self.failures:
                self.failures[i] = replace(
                    self.failures[primary],
                    index=i,
                    spec=self.plan.specs[i].to_dict(),
                )
        out: List[Union[RunResult, RunFailure]] = []
        for i in range(self.plan.n_specs):
            if i in self.results:
                out.append(self.results[i])
            elif i in self.failures:
                out.append(self.failures[i])
            else:  # pragma: no cover - a backend not covering the plan is a bug
                raise SimulationError(f"scheduler produced no outcome for spec #{i}")
        return out


@SCHEDULER_BACKENDS.register("serial")
def _run_serial(plan: ExecutionPlan, options: ExecOptions, plane: _ResultsPlane) -> None:
    """In-process execution, task group by task group."""
    policy = TaskPolicy(
        on_error=plan.on_error,
        max_attempts=options.max_attempts,
        observers=plan.observers,
    )
    for task in plan.tasks:
        for index, (outcome, attempts) in zip(task.indices, run_task(task, policy)):
            plane.deliver(index, outcome, attempts)


def _check_picklable(specs: Sequence[object]) -> None:
    """Fail fast, with the offending spec named, before the pool dispatches."""
    for i, spec in enumerate(specs):
        try:
            clone = pickle.loads(pickle.dumps(spec))
        except Exception as exc:
            raise SimulationError(
                f"spec #{i} ({spec!r}) cannot be shipped to a worker process: "
                f"pickling failed with {type(exc).__name__}: {exc}"
            ) from exc
        if clone != spec:
            raise SimulationError(
                f"spec #{i} ({spec!r}) does not round-trip through pickle; "
                "parallel execution would run a different experiment"
            )


@SCHEDULER_BACKENDS.register("pool")
def _run_pool(plan: ExecutionPlan, options: ExecOptions, plane: _ResultsPlane) -> None:
    """Process-pool fan-out over single-spec tasks, group-consecutive order.

    Observers are not shipped to pool workers (entry points route
    observer-carrying runs to the serial backend).  Lockstep stream groups
    split into independent single-spec tasks here, which is bit-identical
    by the sharding contract.  One worker (or one task) runs in-process.
    """
    units = [
        PlanTask(
            task_id=f"{task.task_id}.{k}",
            indices=(index,),
            specs=(spec,),
            fingerprints=(fingerprint,),
            group=task.group,
            solver=task.solver,
        )
        for task in plan.tasks
        for k, (index, spec, fingerprint) in enumerate(
            zip(task.indices, task.specs, task.fingerprints)
        )
    ]
    run = partial(run_task, policy=TaskPolicy(plan.on_error, options.max_attempts))
    with ExitStack() as stack:
        if options.workers > 1 and len(units) > 1:
            _check_picklable([unit.specs[0] for unit in units])
            ctx = mp.get_context("spawn") if os.name == "nt" else mp.get_context()
            pool = stack.enter_context(ctx.Pool(processes=options.workers))
            chunksize = options.chunksize or default_chunksize(len(units), options.workers)
            outcomes = pool.imap(run, units, chunksize)
        else:
            outcomes = map(run, units)
        for unit, [(outcome, attempts)] in zip(units, outcomes):
            plane.deliver(unit.indices[0], outcome, attempts)


def execute_plan(
    plan: ExecutionPlan,
    backend: Optional[str] = None,
    n_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    max_attempts: Optional[int] = None,
    queue_dir: Optional[str] = None,
    lease_seconds: Optional[float] = None,
    poll_interval: Optional[float] = None,
    timeout: Optional[float] = None,
) -> List[Union[RunResult, RunFailure]]:
    """Execute a plan on a scheduler backend; results in input order.

    ``backend=None`` picks ``"serial"`` for one worker and ``"pool"``
    otherwise (after ``REPRO_WORKERS`` resolution).  Store hits from the
    plan are returned as-is; computed results are stamped with
    ``extra["scheduler_backend"]``/``["attempts"]`` and written through the
    plan's store.  Under ``on_error="collect"`` failed specs yield
    :class:`~repro.exec.plan.RunFailure` records in their slots; under
    ``"raise"`` the first failure raises
    :class:`~repro.errors.WorkerExecutionError` (with the failing spec's
    JSON in the message).
    """
    workers = resolve_worker_count(n_workers, fallback=None)
    name = resolve_backend_name(backend, workers)
    if workers is None:
        workers = 1 if name == "serial" else _cpu_workers()
    if max_attempts is None:
        max_attempts = DEFAULT_QUEUE_ATTEMPTS if name == "queue" else 1
    options = ExecOptions(
        workers=workers,
        chunksize=chunksize,
        max_attempts=max(1, max_attempts),
        queue_dir=queue_dir,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        timeout=timeout,
    )
    plane = _ResultsPlane(plan, name)
    run_backend = SCHEDULER_BACKENDS.resolve(name)
    run_backend(plan, options, plane)
    return plane.assemble()


def run_specs_parallel(
    specs: Sequence[AnySpec],
    n_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    store=None,
    on_error: str = "raise",
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
    observers: Sequence[SimulationObserver] = (),
) -> List[Union[RunResult, RunFailure]]:
    """Execute run specs across a scheduler backend, preserving input order.

    The one run path: resolves workers and backend, builds an
    :class:`~repro.exec.plan.ExecutionPlan` (run-store hits served before
    any dispatch, shared-workload specs grouped, offline SO-BMA demand
    pre-solved once in the parent) and hands it to :func:`execute_plan`.
    Single runs (:func:`~repro.simulation.runner.execute_experiment_spec`),
    :class:`~repro.simulation.runner.ExperimentRunner`,
    :func:`~repro.simulation.sweep.run_experiments` and the CLI all call it.

    Parameters
    ----------
    specs:
        The runs to execute (:class:`~repro.experiments.specs.ExperimentSpec`
        objects or their mappings).  Every spec must round-trip through
        pickle before pool dispatch (checked up front).
    n_workers:
        Worker count; defaults to :func:`default_worker_count`
        (``REPRO_WORKERS`` if set, else CPU count minus one).  A value of 1
        runs in-process (useful under debuggers and on single-CPU hosts,
        where a pool would only add overhead).
    chunksize:
        Number of specs handed to a pool worker at a time; defaults to
        :func:`default_chunksize`, which keeps per-worker caches warm when
        many small specs are submitted.
    store:
        Run-store policy (see :func:`repro.store.resolve_store`; ``None``
        defers to ``REPRO_RUN_STORE``, ``False`` forces cold runs).  With a
        store, every eligible spec (seeded, no matching-history collection)
        is looked up in the *parent* before dispatch: hits are served from
        disk without touching any worker — a fully warm grid performs zero
        simulation work — and only misses are executed.
    on_error:
        ``"raise"`` (default) aborts on the first failing spec with
        :class:`~repro.errors.WorkerExecutionError`; ``"collect"`` returns
        a :class:`~repro.exec.plan.RunFailure` record in the failing spec's
        slot and keeps going.
    backend:
        Scheduler backend name (``"serial"``, ``"pool"``, ``"queue"``);
        ``None`` picks serial for one worker and the pool otherwise.
    queue_dir:
        Queue directory for ``backend="queue"`` (a temporary directory is
        used — and cleaned up — when omitted).
    observers:
        Attached to every run on the serial backend; they cannot cross a
        process boundary, so other backends drop them.  Observers bypass
        store reads (they must see every run) but results are still written.
    """
    if not specs:
        return []
    workers = default_worker_count() if n_workers is None else resolve_worker_count(n_workers)
    name = resolve_backend_name(backend, workers)
    plan = build_execution_plan(
        specs,
        store=store,
        on_error=on_error,
        observers=tuple(observers) if name == "serial" else (),
    )
    return execute_plan(
        plan, backend=name, n_workers=workers, chunksize=chunksize, queue_dir=queue_dir
    )


def _register_queue_backend() -> None:
    """Register the queue backend lazily to keep this module import-light."""
    from .queue import run_queue_backend

    SCHEDULER_BACKENDS.register("queue")(run_queue_backend)


_register_queue_backend()
