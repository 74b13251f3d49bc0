"""Scheduler backends: where an :class:`~repro.exec.plan.ExecutionPlan` runs.

:data:`SCHEDULER_BACKENDS` is a :class:`~repro.experiments.registry.Registry`
(typo'd names get "did you mean ...?" suggestions) mapping a backend name to
a plan executor:

``"serial"``
    In-process execution, one task group at a time.  The only backend that
    honours observers; sequential semantics are the reference every other
    backend must match bit-identically.
``"pool"``
    The established process-pool fan-out
    (:func:`repro.simulation.parallel._execute_batch`), re-seated on the
    planner: groups are flattened to per-spec units in group-consecutive
    order so chunked dispatch keeps per-worker trace caches warm, and the
    plan's pre-solved SO-BMA rounds ship to every worker via the pool
    initializer.
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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from ..errors import SimulationError, WorkerExecutionError
from ..experiments.registry import Registry
from ..simulation import parallel as parallel_mod
from ..simulation.results import RunResult
from .plan import ExecutionPlan, RunFailure

__all__ = [
    "SCHEDULER_BACKENDS",
    "ENV_WORKERS",
    "ExecOptions",
    "execute_plan",
    "resolve_backend_name",
    "resolve_worker_count",
]

#: Environment variable consulted when no explicit worker count is given
#: (mirrors ``REPRO_RUN_STORE``; explicit argument wins).
ENV_WORKERS = parallel_mod.ENV_WORKERS

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
    env = parallel_mod._env_worker_count()
    if env is not None:
        return env
    return fallback


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

    def _stamp(self, result: RunResult, attempts: int) -> RunResult:
        return replace(
            result,
            extra={
                **result.extra,
                "scheduler_backend": self.backend,
                "attempts": int(attempts),
            },
        )

    def success(self, index: int, result: RunResult, attempts: int) -> None:
        """A result computed under this parent: stamp, store, record."""
        result = self._stamp(result, attempts)
        fp = self.plan.fingerprints[index]
        if fp is not None and self.plan.store is not None:
            self.plan.store.put(result, fingerprint=fp)
        self.results[index] = result

    def merge(self, index: int, result: RunResult, attempts: int) -> None:
        """A worker-owned result (queue): the worker already stored it; the
        parent only fills entries the worker's store never saw (e.g. a
        store-less queue dir) — identical content either way."""
        result = self._stamp(result, attempts)
        fp = self.plan.fingerprints[index]
        if (
            fp is not None
            and self.plan.store is not None
            and not self.plan.store.entry_path(fp).exists()
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


def _import_solver_payloads(payloads: Sequence[dict]) -> None:
    """Seed this process's solver memo from a task's pre-solved rounds."""
    if not payloads:
        return
    from ..matching.static_solver import import_solver_rounds

    for payload in payloads:
        try:
            import_solver_rounds(payload)
        except Exception:  # pragma: no cover - pre-solve is best-effort
            continue


def _needs_rich_path(plan: ExecutionPlan) -> bool:
    """Whether serial execution must go through the task-group runtime.

    Observers only exist there, and streaming specs must keep their
    bounded-memory replay (lockstep tee for shared-stream groups, lazy
    stream for solo specs) instead of the flat path's materialized traces.
    """
    if plan.observers:
        return True
    return any(s.traffic.streaming for task in plan.tasks for s in task.specs)


@SCHEDULER_BACKENDS.register("serial")
def _run_serial(plan: ExecutionPlan, options: ExecOptions, plane: _ResultsPlane) -> None:
    """In-process execution, task group by task group."""
    if not plan.tasks:
        return
    collect = plan.on_error == "collect"
    for task in plan.tasks:
        _import_solver_payloads(task.solver)
    if _needs_rich_path(plan):
        from . import runtime

        for task in plan.tasks:
            outcomes = runtime.run_task_specs(
                task.specs,
                observers=plan.observers,
                collect=collect,
                max_attempts=options.max_attempts,
            )
            for index, (outcome, attempts) in zip(task.indices, outcomes):
                plane.deliver(index, outcome, attempts)
    else:
        # The common case funnels through the legacy dispatch seam
        # (`_execute_batch` with workers=1): identical per-spec execution,
        # shared traces served by the per-process LRU the planner pre-seeded.
        indices = [i for task in plan.tasks for i in task.indices]
        parallel_mod._set_exec_context(collect=collect, max_attempts=options.max_attempts)
        try:
            outcomes = parallel_mod._execute_batch(
                [plan.specs[i] for i in indices], 1, options.chunksize
            )
        finally:
            parallel_mod._reset_exec_context()
        for index, (outcome, attempts) in zip(indices, outcomes):
            plane.deliver(index, outcome, attempts)


@SCHEDULER_BACKENDS.register("pool")
def _run_pool(plan: ExecutionPlan, options: ExecOptions, plane: _ResultsPlane) -> None:
    """Process-pool fan-out over per-spec units, group-consecutive order.

    Observers are not shipped to pool workers (entry points route
    observer-carrying runs to the serial backend).  Lockstep stream groups
    flatten to independent per-spec units here — each worker materializes
    its trace from the spec, which is bit-identical by the sharding
    contract.
    """
    if not plan.tasks:
        return
    indices = [i for task in plan.tasks for i in task.indices]
    payloads = [dict(p) for task in plan.tasks for p in task.solver]
    parallel_mod._set_exec_context(
        solver_rounds=payloads,
        collect=plan.on_error == "collect",
        max_attempts=options.max_attempts,
    )
    try:
        outcomes = parallel_mod._execute_batch(
            [plan.specs[i] for i in indices], options.workers, options.chunksize
        )
    finally:
        parallel_mod._reset_exec_context()
    for index, (outcome, attempts) in zip(indices, outcomes):
        plane.deliver(index, outcome, attempts)


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
        workers = 1 if name == "serial" else parallel_mod.default_worker_count()
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


def _register_queue_backend() -> None:
    """Register the queue backend lazily to keep this module import-light."""
    from .queue import run_queue_backend

    SCHEDULER_BACKENDS.register("queue")(run_queue_backend)


_register_queue_backend()
