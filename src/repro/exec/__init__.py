"""Unified execution stack: plan -> scheduler -> results plane.

Every execution entry point (``execute_experiment_spec``/``spec.execute()``,
``ExperimentRunner.run``/``run_many``/``compare_on_shared_trace``,
``run_experiments``, ``run_sweep``, the benchmark harness, and the CLI,
``repro run`` included) makes one :func:`run_specs_parallel` call, which
funnels through the same three layers:

1. **Planner** (:mod:`repro.exec.plan`): :func:`build_execution_plan`
   canonicalizes specs (objects or mappings), serves run-store hits before any
   dispatch, groups shared-trace comparisons into lockstep task groups, and
   pre-solves offline SO-BMA demand once at ``b_max`` in the parent so the
   per-process solver memo stops re-solving the same aggregate in every
   worker.
2. **Scheduler** (:mod:`repro.exec.scheduler`): :data:`SCHEDULER_BACKENDS`
   maps a backend name (``"serial"``, ``"pool"``, ``"queue"``) to a plan
   executor; :func:`execute_plan` dispatches and reassembles results in
   input order.  Every backend runs work through one execution unit,
   :func:`repro.exec.runtime.run_task` — solver-memo seeding, trace reuse,
   retries, and the one failure record, :class:`RunFailure`.
3. **Results plane**: computed results flow back through the run store
   (parent-owned writes for serial/pool, worker-owned writes plus a parent
   merge for the queue), each stamped with
   ``extra["scheduler_backend"]``/``extra["attempts"]`` provenance.

Results are bit-identical to sequential execution on every backend: specs
travel as JSON, workers rebuild traces deterministically from spawned
seeds, and provenance stamping never touches the cost series.
"""

from .plan import ExecutionPlan, PlanTask, RunFailure, build_execution_plan
from .queue import WorkQueue, run_worker
from .runtime import TaskPolicy, run_task
from .scheduler import (
    ENV_WORKERS,
    SCHEDULER_BACKENDS,
    default_chunksize,
    default_worker_count,
    execute_plan,
    resolve_backend_name,
    resolve_worker_count,
    run_specs_parallel,
)

__all__ = [
    "ExecutionPlan",
    "PlanTask",
    "RunFailure",
    "build_execution_plan",
    "SCHEDULER_BACKENDS",
    "ENV_WORKERS",
    "execute_plan",
    "resolve_backend_name",
    "resolve_worker_count",
    "run_specs_parallel",
    "default_worker_count",
    "default_chunksize",
    "TaskPolicy",
    "run_task",
    "WorkQueue",
    "run_worker",
]
