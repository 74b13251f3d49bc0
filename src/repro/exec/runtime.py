"""The execution unit every scheduler backend calls: :func:`run_task`.

A :class:`~repro.exec.plan.PlanTask` groups specs that share a workload and
a seed.  :func:`run_task` executes one such task in the calling process —
the serial backend in the parent, the pool backend in a pool worker (one
single-spec task at a time), the queue backend in a ``repro worker``:

* it seeds this process's solver memo from the task's pre-solved SO-BMA
  rounds, so no process re-solves demand the planner already solved;
* a multi-spec task of streaming specs replays **one** shared stream
  through every algorithm in lockstep (:func:`run_shared_stream`);
* a solo streaming spec keeps its bounded-memory streamed replay;
* otherwise the task's trace comes from the per-process trace cache
  (:func:`cached_trace`), which the planner's SO-BMA pre-solve already
  filled, and each spec replays it.  Results are bit-identical to fully
  independent execution, since the trace depends only on the traffic spec
  and the spawned seed.

Failures follow the :class:`~repro.errors.WorkerExecutionError` contract —
the failing spec's JSON travels in the message.  Under
``on_error="collect"`` a terminal failure becomes a
:class:`~repro.exec.plan.RunFailure` in that spec's slot and the rest of the
task still runs; ``max_attempts`` retries a failing spec (or, for a lockstep
streamed task, the whole task) before the failure is terminal.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..errors import WorkerExecutionError
from ..experiments.observers import SimulationObserver
from ..experiments.specs import ExperimentSpec
from ..simulation.engine import StreamingSimulation, run_simulation
from ..simulation.results import RunResult
from ..simulation.runner import _simulate_spec
from ..traffic.base import Trace
from ..traffic.stream import TraceStream
from .plan import PlanTask, RunFailure

__all__ = [
    "TaskPolicy",
    "run_task",
    "run_shared_stream",
    "cached_trace",
    "share_trace",
    "stamp_provenance",
]

#: Per-process LRU of generated traces, keyed by the workload
#: (:meth:`~repro.experiments.specs.TrafficSpec.workload_key`) and trace
#: seed.  Figure panels run every algorithm against the same workload, so a
#: process generates each trace once instead of once per spec.  Bounded:
#: traces can be millions of requests.
_TRACE_CACHE: "OrderedDict[tuple, Trace]" = OrderedDict()
_TRACE_CACHE_MAX = 4


def _trace_key(spec: ExperimentSpec) -> Optional[tuple]:
    """The cache key of ``spec``'s trace, or ``None`` when it must not be cached.

    Unseeded specs draw fresh entropy per run (caching would turn
    independent workloads into copies of one draw); a workload without a
    key cannot be cached.
    """
    trace_seed = spec.run_seeds()[0]
    key = spec.traffic.workload_key()
    if trace_seed is None or key is None:
        return None
    return key + (trace_seed,)


def share_trace(spec: ExperimentSpec, trace: Trace) -> None:
    """Keep ``trace`` as ``spec``'s trace for later tasks in this process."""
    key = _trace_key(spec)
    if key is None:
        return
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)


def cached_trace(spec: ExperimentSpec) -> Trace:
    """The spec's trace, rebuilt deterministically and memoised per process."""
    key = _trace_key(spec)
    trace = None if key is None else _TRACE_CACHE.get(key)
    if trace is None:
        trace = spec.build_trace()
    share_trace(spec, trace)
    return trace


def stamp_provenance(result: RunResult, backend: str, attempts: int) -> RunResult:
    """``result`` with the scheduler backend and attempt count in ``extra``."""
    return replace(
        result,
        extra={**result.extra, "scheduler_backend": backend, "attempts": int(attempts)},
    )


@dataclass(frozen=True)
class TaskPolicy:
    """How :func:`run_task` treats failures, and the observers it attaches.

    ``on_error`` is the plan's policy (``"raise"`` or ``"collect"``),
    ``max_attempts`` the backend's per-spec attempt budget.  Observers only
    exist in-process, so only the serial backend passes any.
    """

    on_error: str = "raise"
    max_attempts: int = 1
    observers: Tuple[SimulationObserver, ...] = ()


Outcome = Tuple[Union[RunResult, RunFailure], int]


def _describe_spec(spec: ExperimentSpec) -> str:
    """The spec's JSON (algorithm/topology/seed, ...) for error context."""
    try:
        return json.dumps(spec.to_dict(), sort_keys=True, default=repr)
    except Exception:  # pragma: no cover - description must never mask the real error
        return repr(spec)


def _failure_message(exc: Exception, spec: ExperimentSpec) -> str:
    """The error plus the failing spec's JSON, as one message."""
    if isinstance(exc, WorkerExecutionError):
        return str(exc)
    return (
        f"worker failed with {type(exc).__name__}: {exc}; "
        f"failing spec: {_describe_spec(spec)}"
    )


def _run_one(
    spec: ExperimentSpec, solo: bool, observers: Sequence[SimulationObserver]
) -> List[RunResult]:
    # A solo streaming spec streams its own workload (trace=None); every
    # other spec replays the per-process cached trace.
    trace = None if spec.traffic.streaming and solo else cached_trace(spec)
    return [_simulate_spec(spec, trace, observers)]


def _import_solver_rounds(payloads: Sequence[dict]) -> None:
    """Seed this process's solver memo from a task's pre-solved rounds."""
    if not payloads:
        return
    from ..matching.static_solver import import_solver_rounds

    for payload in payloads:
        try:
            import_solver_rounds(payload)
        except Exception:  # noqa: BLE001 - pre-solve is best-effort
            continue


def run_task(task: PlanTask, policy: TaskPolicy = TaskPolicy()) -> List[Outcome]:
    """Execute one plan task; ``(outcome, attempts)`` per spec, in task order.

    With ``policy.on_error="raise"`` the first terminal failure raises
    :class:`~repro.errors.WorkerExecutionError`; with ``"collect"`` it
    becomes a :class:`~repro.exec.plan.RunFailure` in that spec's slot.
    """
    _import_solver_rounds(task.solver)
    specs = task.specs
    observers = tuple(policy.observers)
    if len(specs) > 1 and all(s.traffic.streaming for s in specs):
        units = [(task.indices, specs, partial(run_shared_stream, specs, observers))]
    else:
        units = [
            ((index,), (spec,), partial(_run_one, spec, len(specs) == 1, observers))
            for index, spec in zip(task.indices, specs)
        ]
    outcomes: List[Outcome] = []
    for indices, unit_specs, run in units:
        attempts = 0
        while True:
            attempts += 1
            try:
                results: Sequence[Union[RunResult, RunFailure]] = run()
                break
            except Exception as exc:  # noqa: BLE001 - re-raised with spec context
                if attempts < policy.max_attempts:
                    continue
                if policy.on_error != "collect":
                    if isinstance(exc, WorkerExecutionError):
                        raise
                    raise WorkerExecutionError(
                        _failure_message(exc, unit_specs[0])
                    ) from exc
                results = [
                    RunFailure(
                        index=index,
                        spec=spec.to_dict(),
                        error_type=type(exc).__name__,
                        message=_failure_message(exc, spec),
                        attempts=attempts,
                    )
                    for index, spec in zip(indices, unit_specs)
                ]
                break
        outcomes.extend((outcome, attempts) for outcome in results)
    return outcomes


def run_shared_stream(
    seeded: Sequence[ExperimentSpec],
    observers: Sequence[SimulationObserver] = (),
) -> List[RunResult]:
    """Replay one shared workload stream through several algorithms at once.

    The stream is generated exactly once: :meth:`TraceStream.tee` fans the
    segments out with bounded lookahead and the per-algorithm streaming
    drivers are fed in lockstep (one segment each per round), so peak memory
    stays bounded by the chunk size.  Algorithms that need the whole trace
    up front (``requires_full_trace``) share a single materialized copy
    assembled from one extra tee branch.  Results are bit-identical to
    replaying a materialized shared trace.
    """
    observers = tuple(observers)
    stream = seeded[0].build_stream()
    algorithms = []
    configs = []
    for spec in seeded:
        topology = spec.build_topology(stream)
        algorithms.append(spec.build_algorithm(topology))
        configs.append(replace(spec.simulation, seed=spec.seed))
    online = [i for i, a in enumerate(algorithms) if not a.requires_full_trace]
    offline = [i for i, a in enumerate(algorithms) if a.requires_full_trace]
    children = stream.tee(len(online) + (1 if offline else 0))
    drivers = {
        i: StreamingSimulation(
            algorithms[i],
            stream.metadata,
            config=configs[i],
            observers=observers,
            n_requests=stream.n_requests,
            source=children[k],
        )
        for k, i in enumerate(online)
    }
    collected: List[Trace] = []
    iterators = [iter(child) for child in children]
    for segments in zip(*iterators):
        for k, i in enumerate(online):
            drivers[i].feed(segments[k])
        if offline:
            collected.append(segments[-1])
    results: List[Any] = [None] * len(seeded)
    for i in online:
        results[i] = replace(drivers[i].finish(), spec=seeded[i].to_dict())
    if offline:
        full = TraceStream(collected, stream.metadata).materialize()
        for i in offline:
            result = run_simulation(
                algorithms[i], full, configs[i], observers=observers
            )
            results[i] = replace(result, spec=seeded[i].to_dict())
    return results
