"""Process-pool sharding of run specs.

The simulation itself is a sequential replay (exactly as in the paper:
"Each simulation is run sequentially. Hence, no parallelism is used during
the execution of the proposed algorithm"), but every figure panel and
ablation is a grid of independent (algorithm × degree-bound × repetition)
runs — embarrassingly parallel work.  This module is the single fan-out
point behind :func:`~repro.simulation.sweep.run_experiments`,
:meth:`~repro.simulation.runner.ExperimentRunner.compare_on_shared_trace`,
and the benchmark harness.

Sharding model
--------------
* **Specs travel, objects don't.**  A unit of work is one picklable spec
  (:class:`~repro.experiments.specs.ExperimentSpec` or the legacy
  :class:`~repro.simulation.runner.RunSpec`) — plain names and numbers.
  Traces, topologies, and algorithms are rebuilt *inside* the worker from
  the spec's spawned seeds, so a sharded run is bit-identical to the same
  specs executed sequentially: trace generation depends only on
  ``(traffic spec, trace seed)`` and algorithm randomness only on the
  spawned algorithm seed.  :func:`run_specs_parallel` preserves input order
  in its results.
* **Workers start clean.**  The pool uses an explicit spawn-safe
  initializer (:func:`_init_worker`): it imports the registries in the
  child — so the fan-out works identically whether the platform forks or
  spawns, without relying on inherited module state — and it seeds
  nothing, so worker identity can never leak into results.
* **Per-process caches stay warm.**  Within one worker, consecutive specs
  that share a workload reuse the generated trace (a small LRU keyed by
  traffic spec and trace seed), and :meth:`TopologySpec.build
  <repro.experiments.specs.TopologySpec.build>` memoises built topologies
  per process.  The default ``chunksize`` hands each worker several
  consecutive specs at a time so those caches actually hit when many small
  specs are submitted (figure panels enumerate all algorithms of one
  repetition consecutively, sharing one trace).
* **The parent owns the run store.**  With a store active, fingerprints
  are looked up in the parent before dispatch (hits never reach the pool)
  and miss results are written back by the parent after they return —
  workers compute and return, they never touch store files, so the
  spawn-safe "specs travel, objects don't" contract is untouched and no
  cross-process write coordination is needed.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SimulationError, WorkerExecutionError
from .results import RunResult
from .runner import AnySpec, as_experiment_spec, execute_experiment_spec

__all__ = ["run_specs_parallel", "default_worker_count", "default_chunksize"]

#: Environment default for worker counts, in the family of
#: ``REPRO_RUN_STORE``: consulted only when no explicit ``n_workers`` is
#: passed (an explicit argument always wins).
ENV_WORKERS = "REPRO_WORKERS"

#: Tokens treated as "unset" so ``REPRO_WORKERS=off`` reads naturally in
#: wrapper scripts (matching the run store's disable convention).
_ENV_FALSEY = {"", "0", "off", "false", "no", "none", "disabled"}


def _env_worker_count() -> Optional[int]:
    """The ``REPRO_WORKERS`` default, or ``None`` when unset/disabled."""
    raw = os.environ.get(ENV_WORKERS)
    if raw is None or raw.strip().lower() in _ENV_FALSEY:
        return None
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {ENV_WORKERS}={raw!r}: not an integer",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if value < 1:
        warnings.warn(
            f"ignoring {ENV_WORKERS}={raw!r}: worker count must be >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value


def default_worker_count() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else CPU count minus one."""
    env = _env_worker_count()
    if env is not None:
        return env
    return max(1, (os.cpu_count() or 2) - 1)


def default_chunksize(n_specs: int, n_workers: int) -> int:
    """Specs handed to a worker at a time when the caller does not pin one.

    Large enough that many small specs amortise task dispatch (and hit the
    per-worker trace/topology caches on consecutive specs), small enough
    that every worker gets several chunks for load balancing.
    """
    return max(1, n_specs // (max(1, n_workers) * 4))


#: Per-process LRU of generated traces, keyed by (workload name, generator
#: params, trace seed).  Figure panels run every algorithm against the same
#: workload, so with chunked dispatch a worker regenerates each trace once
#: instead of once per spec.  Bounded: traces can be millions of requests.
_TRACE_CACHE: "OrderedDict[tuple, Any]" = OrderedDict()
_TRACE_CACHE_MAX = 4

#: Batch-scoped execution context for :func:`_execute_batch`.  The dispatch
#: seam's signature is pinned to ``(specs, workers, chunksize)`` — tests and
#: callers monkeypatch it — so scheduler policy (pre-solved SO-BMA rounds to
#: seed worker solver memos, collect-vs-raise error handling, retry budget)
#: travels out of band: the scheduler sets it around a batch, and the pool
#: initializer ships a snapshot to every child via ``initargs``.
_DEFAULT_EXEC_CONTEXT: Dict[str, Any] = {
    "solver_rounds": (),
    "collect": False,
    "max_attempts": 1,
}
_EXEC_CONTEXT: Dict[str, Any] = dict(_DEFAULT_EXEC_CONTEXT)


def _set_exec_context(
    solver_rounds: Sequence[Mapping[str, Any]] = (),
    collect: bool = False,
    max_attempts: int = 1,
) -> None:
    """Install batch policy for subsequent :func:`_execute_batch` calls."""
    _EXEC_CONTEXT.update(
        solver_rounds=tuple(dict(p) for p in solver_rounds),
        collect=bool(collect),
        max_attempts=max(1, int(max_attempts)),
    )


def _reset_exec_context() -> None:
    """Restore the default single-attempt, raise-on-error batch policy."""
    _EXEC_CONTEXT.clear()
    _EXEC_CONTEXT.update(_DEFAULT_EXEC_CONTEXT)


def _init_worker(context: Optional[Mapping[str, Any]] = None) -> None:
    """Spawn-safe pool initializer.

    Imports the domain registries in the child process (a no-op under fork,
    required under spawn) and starts from empty per-process caches.  It
    deliberately seeds nothing: all randomness must flow from the specs'
    spawned seeds so results are independent of which worker ran a spec.
    ``context`` is the parent's :data:`_EXEC_CONTEXT` snapshot; its
    pre-solved solver rounds seed this process's solver memo so workers
    never re-solve demand the planner already solved.
    """
    from .. import core, topology, traffic  # noqa: F401  (registry population)

    _TRACE_CACHE.clear()
    _reset_exec_context()
    if context:
        _EXEC_CONTEXT.update(
            collect=bool(context.get("collect", False)),
            max_attempts=max(1, int(context.get("max_attempts", 1))),
        )
        payloads = context.get("solver_rounds") or ()
        if payloads:
            from ..matching.static_solver import import_solver_rounds

            for payload in payloads:
                try:
                    import_solver_rounds(payload)
                except Exception:  # noqa: BLE001 - pre-solve is best-effort
                    continue


def _cached_trace(spec) -> Any:
    """The spec's trace, rebuilt deterministically and memoised per process."""
    trace_seed = spec.run_seeds()[0]
    if trace_seed is None:
        # Unseeded specs draw fresh entropy per run; caching would turn
        # independent workloads into copies of one draw.
        return spec.build_trace(trace_seed)
    try:
        key = (
            spec.traffic.name,
            tuple(sorted(spec.traffic.params.items())),
            trace_seed,
        )
        trace = _TRACE_CACHE.get(key)
    except TypeError:  # unhashable generator params: rebuild every time
        return spec.build_trace(trace_seed)
    if trace is None:
        trace = spec.build_trace(trace_seed)
        _TRACE_CACHE[key] = trace
    else:
        _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)
    return trace


def _describe_spec(spec) -> str:
    """The spec's JSON (algorithm/topology/seed, ...) for error context."""
    try:
        return json.dumps(spec.to_dict(), sort_keys=True, default=repr)
    except Exception:  # pragma: no cover - description must never mask the real error
        return repr(spec)


@dataclass(frozen=True)
class _WorkerFailure:
    """A spec's terminal failure under ``collect`` mode (picklable record)."""

    message: str
    error_type: str


_WorkerOutcome = Tuple[Union[RunResult, _WorkerFailure], int]


def _worker(spec: AnySpec) -> _WorkerOutcome:
    """Execute one spec; returns ``(outcome, attempts)``.

    A bare exception escaping a pool worker reaches the caller stripped of
    its worker-side traceback and cause, with no hint of *which* of
    possibly hundreds of specs failed; re-raising as
    :class:`~repro.errors.WorkerExecutionError` with the spec's JSON in the
    message makes a sweep failure diagnosable from the parent process
    alone.  Used by both the pool path and the in-process ``n_workers=1``
    fallback so failures read the same either way.  Under the batch
    context's ``collect`` policy a terminal failure becomes a
    :class:`_WorkerFailure` record instead of raising, and ``max_attempts``
    retries the spec before the failure is terminal.
    """
    experiment = as_experiment_spec(spec)
    max_attempts = max(1, int(_EXEC_CONTEXT.get("max_attempts", 1)))
    collect = bool(_EXEC_CONTEXT.get("collect", False))
    attempts = 0
    while True:
        attempts += 1
        try:
            result = execute_experiment_spec(experiment, trace=_cached_trace(experiment))
            return result, attempts
        except WorkerExecutionError as exc:
            if attempts < max_attempts:
                continue
            if collect:
                return _WorkerFailure(str(exc), type(exc).__name__), attempts
            raise
        except Exception as exc:
            if attempts < max_attempts:
                continue
            failure = WorkerExecutionError(
                f"worker failed with {type(exc).__name__}: {exc}; "
                f"failing spec: {_describe_spec(experiment)}"
            )
            if collect:
                return _WorkerFailure(str(failure), type(exc).__name__), attempts
            raise failure from exc


def _check_picklable(specs: Sequence[AnySpec]) -> None:
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


def _execute_batch(
    specs: Sequence[AnySpec], workers: int, chunksize: Optional[int]
) -> List[_WorkerOutcome]:
    """Run ``specs`` in-process or across a pool, preserving input order.

    This is the dispatch seam the scheduler backends call (and tests
    monkeypatch); its signature stays ``(specs, workers, chunksize)``, with
    batch policy carried by :data:`_EXEC_CONTEXT`.  Returns one
    ``(outcome, attempts)`` pair per spec.
    """
    if workers == 1 or len(specs) == 1:
        # In-process fallback goes through the same _worker wrapper as the
        # pool so failures carry identical spec context (and consecutive
        # specs sharing a workload hit the same trace cache).
        return [_worker(spec) for spec in specs]
    _check_picklable(specs)
    if chunksize is None:
        chunksize = default_chunksize(len(specs), workers)
    ctx = mp.get_context("spawn") if os.name == "nt" else mp.get_context()
    with ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(dict(_EXEC_CONTEXT),),
    ) as pool:
        return list(pool.map(_worker, list(specs), chunksize=chunksize))


def run_specs_parallel(
    specs: Sequence[AnySpec],
    n_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    store=None,
    on_error: str = "raise",
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
):
    """Execute run specs across a scheduler backend, preserving input order.

    A thin shim over the execution stack: builds an
    :class:`~repro.exec.plan.ExecutionPlan` (run-store hits served before
    any dispatch, shared-workload specs grouped, offline SO-BMA demand
    pre-solved once in the parent) and hands it to
    :func:`~repro.exec.scheduler.execute_plan`.

    Parameters
    ----------
    specs:
        The runs to execute (legacy or structured specs).  Every spec must
        round-trip through pickle before pool dispatch (checked up front).
    n_workers:
        Worker count; defaults to ``REPRO_WORKERS`` if set, else
        :func:`default_worker_count`.  A value of 1 falls back to
        in-process execution (useful under debuggers and on single-CPU
        hosts, where a pool would only add overhead).
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
    """
    if not specs:
        return []
    if n_workers is not None and n_workers < 1:
        raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
    from ..exec import build_execution_plan, execute_plan, resolve_worker_count

    workers = resolve_worker_count(n_workers, fallback=default_worker_count())
    plan = build_execution_plan(specs, store=store, on_error=on_error)
    return execute_plan(
        plan,
        backend=backend,
        n_workers=workers,
        chunksize=chunksize,
        queue_dir=queue_dir,
    )
