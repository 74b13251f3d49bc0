"""Observer protocol for the simulation engine.

:func:`repro.simulation.engine.run_simulation` accepts any number of
observers and notifies them at four points:

``on_start(context)``
    Once, before the first request is served.
``on_request_batch(context, start, stop)``
    After serving requests ``start .. stop-1`` (0-based trace indices).  By
    default batches span the gap between two checkpoints; an observer that
    needs finer granularity sets :attr:`SimulationObserver.batch_interval`
    (``1`` means after every request).
``on_checkpoint(context, event)``
    At each recorded checkpoint, with the cumulative metrics so far.
``on_end(context, result)``
    Once, with the finished :class:`~repro.simulation.results.RunResult`.

Progress reporting, live invariant validation and cost tracing — previously
hard-coded engine flags — are the bundled observers below; anything else can
be plugged in without touching the engine.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, TextIO

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..config import SimulationConfig
    from ..core.base import OnlineBMatchingAlgorithm
    from ..simulation.results import RunResult

__all__ = [
    "RunContext",
    "CheckpointEvent",
    "SimulationObserver",
    "ObserverList",
    "ProgressObserver",
    "ValidationObserver",
    "CostTraceObserver",
]


@dataclass(frozen=True)
class RunContext:
    """What the engine is running: passed to every observer hook.

    ``trace`` is the materialized :class:`~repro.traffic.base.Trace` or, on
    the streaming path, the :class:`~repro.traffic.stream.TraceStream` being
    consumed (both expose ``.name``/``.n_nodes``).  ``n_requests`` is ``None``
    while streaming a trace whose length is only discovered at exhaustion.
    """

    algorithm: "OnlineBMatchingAlgorithm"
    trace: Any
    config: "SimulationConfig"
    n_requests: Optional[int]


@dataclass(frozen=True)
class CheckpointEvent:
    """Cumulative metrics at one recorded checkpoint."""

    index: int
    requests_served: int
    routing_cost: float
    reconfiguration_cost: float
    elapsed_seconds: float
    matched_fraction: float

    @property
    def total_cost(self) -> float:
        """Routing plus reconfiguration cost so far."""
        return self.routing_cost + self.reconfiguration_cost


class SimulationObserver:
    """Base class (and protocol) for engine observers.

    Subclasses override any subset of the hooks; all default to no-ops, so an
    observer only pays for what it watches.
    """

    #: Maximum number of requests per ``on_request_batch`` notification; the
    #: engine also flushes a batch at every checkpoint.  ``None`` means
    #: checkpoint-sized batches are fine.
    batch_interval: Optional[int] = None

    def on_start(self, context: RunContext) -> None:
        """Called once before the first request is served."""

    def on_request_batch(self, context: RunContext, start: int, stop: int) -> None:
        """Called after requests ``start .. stop-1`` have been served."""

    def on_checkpoint(self, context: RunContext, event: CheckpointEvent) -> None:
        """Called at each recorded checkpoint."""

    def on_end(self, context: RunContext, result: "RunResult") -> None:
        """Called once with the finished result."""


class ObserverList(SimulationObserver):
    """Fans every hook out to a list of observers (used by the engine)."""

    def __init__(self, observers: Iterable[SimulationObserver] = ()):
        self.observers: List[SimulationObserver] = list(observers)
        for obs in self.observers:
            if not isinstance(obs, SimulationObserver):
                raise SimulationError(
                    f"observers must derive from SimulationObserver, got {type(obs).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.observers)

    @property
    def batch_interval(self) -> Optional[int]:  # type: ignore[override]
        intervals = [o.batch_interval for o in self.observers if o.batch_interval is not None]
        return min(intervals) if intervals else None

    def on_start(self, context: RunContext) -> None:
        for obs in self.observers:
            obs.on_start(context)

    def on_request_batch(self, context: RunContext, start: int, stop: int) -> None:
        for obs in self.observers:
            obs.on_request_batch(context, start, stop)

    def on_checkpoint(self, context: RunContext, event: CheckpointEvent) -> None:
        for obs in self.observers:
            obs.on_checkpoint(context, event)

    def on_end(self, context: RunContext, result: "RunResult") -> None:
        for obs in self.observers:
            obs.on_end(context, result)


class ProgressObserver(SimulationObserver):
    """Prints a one-line progress update at every checkpoint.

    Replaces ad-hoc ``print`` sprinkling in scripts; the CLI's ``--progress``
    flag attaches one of these.
    """

    def __init__(self, stream: Optional[TextIO] = None, label: Optional[str] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._started_at = 0.0

    def on_start(self, context: RunContext) -> None:
        self._started_at = time.perf_counter()
        label = self.label or f"{context.algorithm.name} on {context.trace.name}"
        total = "?" if context.n_requests is None else f"{context.n_requests:,}"
        print(f"[repro] {label}: {total} requests", file=self.stream)

    def on_checkpoint(self, context: RunContext, event: CheckpointEvent) -> None:
        if context.n_requests is None:
            progress = "     ?%"
        else:
            pct = 100.0 * event.requests_served / max(1, context.n_requests)
            progress = f"{pct:5.1f}%"
        wall = time.perf_counter() - self._started_at
        print(
            f"[repro]   {event.requests_served:>9,} ({progress.strip():>6})  "
            f"routing={event.routing_cost:,.0f}  reconf={event.reconfiguration_cost:,.0f}  "
            f"wall={wall:.1f}s",
            file=self.stream,
        )

    def on_end(self, context: RunContext, result: "RunResult") -> None:
        wall = time.perf_counter() - self._started_at
        print(
            f"[repro] done: total_cost={result.total_cost:,.0f} in {wall:.1f}s",
            file=self.stream,
        )


class ValidationObserver(SimulationObserver):
    """Checks the b-matching invariants as the simulation runs.

    With ``every_request=True`` (the default, equivalent to the engine's old
    ``validate=True`` flag) the degree bounds are checked after every single
    request; otherwise only at checkpoints.
    """

    def __init__(self, every_request: bool = True):
        self.every_request = every_request
        self.batch_interval = 1 if every_request else None
        self.checks = 0

    def _check(self, context: RunContext) -> None:
        from ..matching.validation import check_b_matching

        algorithm = context.algorithm
        check_b_matching(
            algorithm.matching.edges, algorithm.topology.n_racks, algorithm.config.b
        )
        self.checks += 1

    def on_request_batch(self, context: RunContext, start: int, stop: int) -> None:
        if self.every_request:
            self._check(context)

    def on_checkpoint(self, context: RunContext, event: CheckpointEvent) -> None:
        if not self.every_request:
            self._check(context)


class CostTraceObserver(SimulationObserver):
    """Records every checkpoint event (and optionally calls back on each).

    Useful for live dashboards or cost-anomaly detection during long sweeps;
    after the run, :attr:`events` holds the full checkpoint history.
    """

    def __init__(self, callback: Optional[Callable[[CheckpointEvent], Any]] = None):
        self.callback = callback
        self.events: List[CheckpointEvent] = []
        self.result: Optional["RunResult"] = None

    def on_checkpoint(self, context: RunContext, event: CheckpointEvent) -> None:
        self.events.append(event)
        if self.callback is not None:
            self.callback(event)

    def on_end(self, context: RunContext, result: "RunResult") -> None:
        self.result = result
