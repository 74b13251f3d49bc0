"""Request-replay simulation engine.

:func:`run_simulation` replays a trace through an online b-matching
algorithm, measuring the algorithm's wall-clock time (excluding the engine's
own checkpoint bookkeeping) and recording the cumulative cost series at
evenly spaced checkpoints.

Two replay paths share identical semantics:

* the **reference path** serves one request per loop iteration, exactly as
  the original implementation did.  It is used when
  ``SimulationConfig.matching_backend == "reference"``, when per-request
  matching history is collected, and when an observer demands per-request
  batches;
* the **batched path** pre-materialises the trace once, splits it into
  contiguous segments bounded by checkpoints (and observer batch intervals),
  and hands each segment to the algorithm's ``serve_batch`` in a single call,
  so checkpoint checks, observer dispatch, and Request/ServeOutcome
  allocation are paid per segment instead of per request.  Every registered
  algorithm ships a hand-tuned ``serve_batch``; algorithms that do not
  override it inherit the base-class per-request loop inside the batched
  path, so there is no engine-level fallback to route around ``serve_batch``.
  Each result records the requested backend and the kernel that ran in
  ``RunResult.extra["matching_backend"]`` / ``extra["matching_kernel"]``.

Checkpoint positions default to evenly spaced request counts
(:func:`_checkpoint_positions`); ``SimulationConfig.checkpoint_positions``
overrides them with an explicit strictly increasing sequence, e.g. from
:func:`log_spaced_checkpoints` for the log-x-axis figures used in related
work.

Cross-cutting concerns — progress reporting, live invariant validation, cost
tracing — are not engine flags but *observers*
(:class:`~repro.experiments.observers.SimulationObserver`): the engine calls
``on_start`` / ``on_request_batch`` / ``on_checkpoint`` / ``on_end`` on every
observer it is given.  The legacy ``validate=True`` flag is kept as sugar for
attaching a :class:`~repro.experiments.observers.ValidationObserver`, which
the integration tests use to certify that no algorithm ever violates the
degree bound.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..config import SimulationConfig
from ..core.base import OnlineBMatchingAlgorithm
from ..errors import SimulationError
from ..experiments.observers import (
    CheckpointEvent,
    ObserverList,
    RunContext,
    SimulationObserver,
    ValidationObserver,
)
from ..traffic.base import Trace, TraceMetadata
from ..traffic.stream import TraceStream
from .results import CheckpointSeries, RunResult
from .timer import Timer

__all__ = ["run_simulation", "StreamingSimulation", "log_spaced_checkpoints"]


def _strictify(ideal: np.ndarray, n_requests: int) -> np.ndarray:
    """Round ideal positions to strictly increasing ints in ``[1, n_requests]``.

    Rounding can collapse neighbours on short traces; instead of dropping the
    duplicates (which would silently return fewer checkpoints than
    requested), collisions are resolved by shifting positions forward while
    clamping to the valid range.
    """
    positions = np.round(ideal).astype(np.int64)
    k = positions.size
    offsets = np.arange(k, dtype=np.int64)
    # Strictly increasing: each position at least one past its predecessor.
    positions = np.maximum(positions, offsets + 1)
    positions = np.maximum.accumulate(positions - offsets) + offsets
    # Leave room for the positions still to come, ending exactly at n.
    positions = np.minimum(positions, n_requests - (k - 1 - offsets))
    return positions


def _checkpoint_positions(n_requests: int, n_checkpoints: int) -> np.ndarray:
    """Request counts (1-based) at which to record the series.

    Contract (documented on :class:`~repro.config.SimulationConfig`): exactly
    ``min(n_checkpoints, n_requests)`` strictly increasing positions in
    ``[1, n_requests]``, the last being ``n_requests``, evenly spaced up to
    rounding.
    """
    if n_requests <= 0:
        raise SimulationError("cannot simulate an empty trace")
    n_checkpoints = min(n_checkpoints, n_requests)
    ideal = np.linspace(n_requests / n_checkpoints, n_requests, n_checkpoints)
    return _strictify(ideal, n_requests)


def log_spaced_checkpoints(n_requests: int, n_checkpoints: int) -> tuple[int, ...]:
    """Geometrically spaced checkpoint positions for log-x-axis figures.

    Returns exactly ``min(n_checkpoints, n_requests)`` strictly increasing
    positions in ``[1, n_requests]`` — the first at 1, the last at
    ``n_requests`` — suitable for
    :attr:`~repro.config.SimulationConfig.checkpoint_positions`.

    Examples
    --------
    >>> log_spaced_checkpoints(10_000, 5)
    (1, 10, 100, 1000, 10000)
    """
    if n_requests <= 0:
        raise SimulationError(
            f"n_requests must be positive, got {n_requests}"
        )
    if n_checkpoints < 1:
        raise SimulationError(
            f"n_checkpoints must be >= 1, got {n_checkpoints}"
        )
    n_checkpoints = min(n_checkpoints, n_requests)
    if n_checkpoints == 1:
        return (n_requests,)
    ideal = np.geomspace(1.0, float(n_requests), n_checkpoints)
    return tuple(int(p) for p in _strictify(ideal, n_requests))


def _validate_checkpoint_override(override) -> np.ndarray:
    """Fully validate explicit checkpoint positions, independent of trace length.

    :class:`~repro.config.SimulationConfig` validates at construction, but
    configs built with ``dataclasses.replace`` or deserialised by other code
    can bypass ``__post_init__`` — so the engine re-validates at resolution
    time: positions must be a non-empty 1-D sequence of integral values,
    at least 1, strictly increasing.  Integrality is checked *before* the
    int64 cast, which would otherwise silently truncate ``10.7`` to ``10``.
    """
    positions = np.asarray(override)
    if positions.ndim != 1 or positions.size == 0:
        raise SimulationError(
            f"checkpoint_positions must be a non-empty 1-D sequence, got {override!r}"
        )
    if not np.issubdtype(positions.dtype, np.number) or np.issubdtype(
        positions.dtype, np.complexfloating
    ):
        raise SimulationError(
            f"checkpoint positions must be integers, got {override!r}"
        )
    if np.issubdtype(positions.dtype, np.floating):
        if not np.all(np.isfinite(positions)) or np.any(positions != np.floor(positions)):
            raise SimulationError(
                f"checkpoint positions must be integers, got {override!r} "
                "(refusing to silently truncate)"
            )
    positions = positions.astype(np.int64)
    if int(positions[0]) < 1:
        raise SimulationError(
            f"checkpoint positions must be >= 1, got {int(positions[0])}"
        )
    if positions.size > 1 and np.any(np.diff(positions) <= 0):
        raise SimulationError(
            f"checkpoint_positions must be strictly increasing, got "
            f"{tuple(int(p) for p in positions)}"
        )
    return positions


def _resolve_checkpoints(n_requests: int, config: SimulationConfig) -> np.ndarray:
    """The run's checkpoint positions: explicit override or the even default."""
    override = config.checkpoint_positions
    if override is None:
        return _checkpoint_positions(n_requests, config.checkpoints)
    positions = _validate_checkpoint_override(override)
    if int(positions[-1]) > n_requests:
        raise SimulationError(
            f"checkpoint_positions reach {int(positions[-1])} but the trace has "
            f"only {n_requests} requests"
        )
    return positions


def _assemble_result(
    algorithm: OnlineBMatchingAlgorithm,
    config: SimulationConfig,
    workload: str,
    n_requests: int,
    cp_requests: list,
    cp_routing: list,
    cp_reconf: list,
    cp_elapsed: list,
    cp_matched: list,
    elapsed_seconds: float,
    matching_history: list,
) -> RunResult:
    """Build the :class:`RunResult` shared by the materialized and streaming drives."""
    series = CheckpointSeries(
        requests=np.asarray(cp_requests, dtype=np.int64),
        routing_cost=np.asarray(cp_routing, dtype=np.float64),
        reconfiguration_cost=np.asarray(cp_reconf, dtype=np.float64),
        elapsed_seconds=np.asarray(cp_elapsed, dtype=np.float64),
        matched_fraction=np.asarray(cp_matched, dtype=np.float64),
    )
    extra: dict = {
        # Provenance: the backend the config asked for and the kernel that
        # actually ran.
        "matching_backend": config.matching_backend,
        "matching_kernel": algorithm.matching.backend_name,
    }
    # Static-solver provenance (SO-BMA): the solver backend the config asked
    # for and the blossom kernel that actually ran — same requested/effective
    # contract as the matching keys above, populated by the algorithm's fit.
    solver_provenance = getattr(algorithm, "solver_provenance", None)
    if solver_provenance:
        extra.update(solver_provenance)
    if config.collect_matching_history:
        extra["matching_history"] = matching_history
    return RunResult(
        algorithm=algorithm.name,
        workload=workload,
        topology=algorithm.topology.name,
        b=algorithm.config.b,
        alpha=algorithm.config.alpha,
        n_requests=n_requests,
        seed=config.seed,
        series=series,
        total_routing_cost=algorithm.total_routing_cost,
        total_reconfiguration_cost=algorithm.total_reconfiguration_cost,
        total_elapsed_seconds=elapsed_seconds,
        matched_fraction=algorithm.matched_fraction,
        extra=extra,
    )


def run_simulation(
    algorithm: OnlineBMatchingAlgorithm,
    trace: "Trace | TraceStream",
    config: Optional[SimulationConfig] = None,
    validate: bool = False,
    observers: Iterable[SimulationObserver] = (),
) -> RunResult:
    """Replay ``trace`` through ``algorithm`` and collect a :class:`RunResult`.

    Parameters
    ----------
    algorithm:
        A fresh (or reset) algorithm instance; offline algorithms
        (``requires_full_trace``) are fitted on the trace first.  The engine
        rebinds the algorithm's matching onto
        ``config.matching_backend`` before the first request (a no-op when it
        already matches); the rebind preserves state exactly and consumes no
        randomness, so results are bit-identical across backends.
    trace:
        The workload to replay.  A :class:`~repro.traffic.stream.TraceStream`
        is consumed segment by segment through :class:`StreamingSimulation`
        (peak memory bounded by the chunk size, results bit-identical to the
        materialized replay); offline algorithms (``requires_full_trace``)
        materialize the stream first, since they need the whole trace to fit.
    config:
        Simulation parameters (checkpoints, matching backend, seed
        recording).  The seed in the config is *not* applied to the
        algorithm — pass it to the algorithm's constructor — it is only
        recorded in the result for provenance.
    validate:
        If true, validate the b-matching invariants after every request
        (slow; meant for tests).  Equivalent to passing a
        :class:`~repro.experiments.observers.ValidationObserver`.
    observers:
        Observers notified at run start/end, after each request batch, and at
        each checkpoint.  Observer time is excluded from the measured
        algorithm wall-clock time.
    """
    if isinstance(trace, TraceStream):
        if algorithm.requires_full_trace:
            return run_simulation(
                algorithm, trace.materialize(), config, validate, observers
            )
        driver = StreamingSimulation(
            algorithm,
            trace.metadata,
            config=config,
            validate=validate,
            observers=observers,
            n_requests=trace.n_requests,
            source=trace,
        )
        for segment in trace:
            driver.feed(segment)
        return driver.finish()

    config = config or SimulationConfig()
    if trace.n_nodes > algorithm.topology.n_racks:
        raise SimulationError(
            f"trace addresses {trace.n_nodes} racks but topology has only "
            f"{algorithm.topology.n_racks}"
        )
    if algorithm.requests_served:
        raise SimulationError(
            "algorithm has already served requests; call reset() or use a fresh instance"
        )
    algorithm.rebind_matching_backend(config.matching_backend)

    watchers = ObserverList(observers)
    if validate:
        watchers.observers.append(ValidationObserver())
    notify = bool(watchers)

    n_requests = len(trace)
    checkpoints = _resolve_checkpoints(n_requests, config)
    timer = Timer()

    context = RunContext(algorithm=algorithm, trace=trace, config=config,
                         n_requests=n_requests)
    if notify:
        watchers.on_start(context)
    batch_interval = watchers.batch_interval if notify else None

    cp_requests: list[int] = []
    cp_routing: list[float] = []
    cp_reconf: list[float] = []
    cp_elapsed: list[float] = []
    cp_matched: list[float] = []
    matching_history: list[frozenset] = []

    use_batched_path = (
        config.matching_backend != "reference"
        and not config.collect_matching_history
        # Per-request batches (e.g. ValidationObserver) degenerate to
        # single-element segments; the plain loop is faster and identical.
        and (batch_interval is None or batch_interval > 1)
    )

    if algorithm.requires_full_trace:
        with timer:
            algorithm.fit(trace if use_batched_path else list(trace.requests()))

    def record_checkpoint(index: int, served: int) -> None:
        cp_requests.append(served)
        cp_routing.append(algorithm.total_routing_cost)
        cp_reconf.append(algorithm.total_reconfiguration_cost)
        cp_elapsed.append(timer.elapsed)
        cp_matched.append(algorithm.matched_fraction)
        if notify:
            watchers.on_checkpoint(
                context,
                CheckpointEvent(
                    index=index,
                    requests_served=served,
                    routing_cost=algorithm.total_routing_cost,
                    reconfiguration_cost=algorithm.total_reconfiguration_cost,
                    elapsed_seconds=timer.elapsed,
                    matched_fraction=algorithm.matched_fraction,
                ),
            )

    if use_batched_path:
        checkpoint_list = checkpoints.tolist()
        n_checkpoints = len(checkpoint_list)
        next_checkpoint_idx = 0
        served = 0
        batch_start = 0
        while served < n_requests:
            # Explicit checkpoint overrides may end before the last request;
            # the remaining tail is then served as one final segment.
            if next_checkpoint_idx < n_checkpoints:
                stop = checkpoint_list[next_checkpoint_idx]
            else:
                stop = n_requests
            if batch_interval is not None:
                stop = min(stop, batch_start + batch_interval)
            segment = trace[served:stop]
            with timer:
                algorithm.serve_batch(segment)
            served = stop
            at_checkpoint = (
                next_checkpoint_idx < n_checkpoints
                and served >= checkpoint_list[next_checkpoint_idx]
            )
            if notify and served > batch_start:
                interval_reached = (
                    batch_interval is not None and served - batch_start >= batch_interval
                )
                if interval_reached or at_checkpoint:
                    watchers.on_request_batch(context, batch_start, served)
                    batch_start = served
            if at_checkpoint:
                record_checkpoint(next_checkpoint_idx, served)
                next_checkpoint_idx += 1
        # Flush the trailing partial batch (requests past the last checkpoint
        # or short of a full interval) so observers see every request.
        if notify and served > batch_start:
            watchers.on_request_batch(context, batch_start, served)
            batch_start = served
    else:
        next_checkpoint_idx = 0
        served = 0
        batch_start = 0
        for i in range(n_requests):
            request = trace[i]
            with timer:
                algorithm.serve(request)
            served += 1
            if config.collect_matching_history:
                matching_history.append(algorithm.matching.edges)
            at_checkpoint = (
                next_checkpoint_idx < len(checkpoints)
                and served >= checkpoints[next_checkpoint_idx]
            )
            if notify and batch_interval is not None and served - batch_start >= batch_interval:
                watchers.on_request_batch(context, batch_start, served)
                batch_start = served
            if at_checkpoint:
                if notify and served > batch_start:
                    watchers.on_request_batch(context, batch_start, served)
                    batch_start = served
                record_checkpoint(next_checkpoint_idx, served)
                next_checkpoint_idx += 1
        # Flush the trailing partial batch (requests past the last checkpoint
        # or short of a full interval) so observers see every request.
        if notify and served > batch_start:
            watchers.on_request_batch(context, batch_start, served)
            batch_start = served

    result = _assemble_result(
        algorithm, config, trace.name, n_requests,
        cp_requests, cp_routing, cp_reconf, cp_elapsed, cp_matched,
        timer.elapsed, matching_history,
    )
    if notify:
        watchers.on_end(context, result)
    return result


class StreamingSimulation:
    """Incremental drive loop over streamed trace segments.

    Construct with a fresh algorithm, :meth:`feed` contiguous
    :class:`~repro.traffic.base.Trace` segments in global order, then call
    :meth:`finish` for the :class:`RunResult`.  The result is **bit-identical**
    to :func:`run_simulation` on the materialized concatenation of the
    segments: checkpoints and observer batches fire at the same global
    positions regardless of where segment boundaries fall, and per-segment
    cost sums are exact (path lengths are integral floats, so float64
    addition is lossless far past any realistic trace length).

    Checkpoint planning:

    * declared ``n_requests`` — identical to the materialized run
      (:func:`_resolve_checkpoints`, evenly spaced or the explicit override);
    * unknown length with explicit ``config.checkpoint_positions`` — the
      positions are used as given and must all be reached by exhaustion;
    * unknown length, no override — tail-flush strategy: one checkpoint
      recorded at exhaustion (even spacing needs the length up front).

    :func:`run_simulation` drives one of these per stream; the runner's
    shared-stream fan-out (``compare_on_shared_trace``) drives several in
    lockstep off one tee'd stream.
    """

    def __init__(
        self,
        algorithm: OnlineBMatchingAlgorithm,
        metadata: TraceMetadata,
        config: Optional[SimulationConfig] = None,
        validate: bool = False,
        observers: Iterable[SimulationObserver] = (),
        n_requests: Optional[int] = None,
        source: Optional[TraceStream] = None,
    ):
        config = config or SimulationConfig()
        if metadata.n_nodes > algorithm.topology.n_racks:
            raise SimulationError(
                f"trace addresses {metadata.n_nodes} racks but topology has only "
                f"{algorithm.topology.n_racks}"
            )
        if algorithm.requests_served:
            raise SimulationError(
                "algorithm has already served requests; call reset() or use a fresh instance"
            )
        if algorithm.requires_full_trace:
            raise SimulationError(
                f"algorithm {algorithm.name!r} requires the full trace to fit; "
                "materialize the stream first (run_simulation does this automatically)"
            )
        algorithm.rebind_matching_backend(config.matching_backend)

        self.algorithm = algorithm
        self.config = config
        self.metadata = metadata
        self.declared_n_requests = None if n_requests is None else int(n_requests)

        self._watchers = ObserverList(observers)
        if validate:
            self._watchers.observers.append(ValidationObserver())
        self._notify = bool(self._watchers)
        self._batch_interval = self._watchers.batch_interval if self._notify else None

        if self.declared_n_requests is not None:
            self._checkpoints: Optional[list] = _resolve_checkpoints(
                self.declared_n_requests, config
            ).tolist()
        elif config.checkpoint_positions is not None:
            self._checkpoints = _validate_checkpoint_override(
                config.checkpoint_positions
            ).tolist()
        else:
            self._checkpoints = None  # tail-flush: record once at exhaustion

        self._use_batched = (
            config.matching_backend != "reference"
            and not config.collect_matching_history
            and (self._batch_interval is None or self._batch_interval > 1)
        )
        self._timer = Timer()
        self._served = 0
        self._batch_start = 0
        self._next_cp = 0
        self._finished = False
        self._cp_requests: list[int] = []
        self._cp_routing: list[float] = []
        self._cp_reconf: list[float] = []
        self._cp_elapsed: list[float] = []
        self._cp_matched: list[float] = []
        self._matching_history: list[frozenset] = []

        if source is None:
            # Observers only need `.name` off the context trace; a zero-length
            # placeholder keeps the context usable for driver-level callers.
            source = TraceStream((), metadata, n_requests=n_requests)
        self._context = RunContext(
            algorithm=algorithm, trace=source, config=config,
            n_requests=self.declared_n_requests,
        )
        if self._notify:
            self._watchers.on_start(self._context)

    @property
    def requests_served(self) -> int:
        """Requests fed through the algorithm so far."""
        return self._served

    def _record_checkpoint(self, index: int, served: int) -> None:
        algorithm = self.algorithm
        self._cp_requests.append(served)
        self._cp_routing.append(algorithm.total_routing_cost)
        self._cp_reconf.append(algorithm.total_reconfiguration_cost)
        self._cp_elapsed.append(self._timer.elapsed)
        self._cp_matched.append(algorithm.matched_fraction)
        if self._notify:
            self._watchers.on_checkpoint(
                self._context,
                CheckpointEvent(
                    index=index,
                    requests_served=served,
                    routing_cost=algorithm.total_routing_cost,
                    reconfiguration_cost=algorithm.total_reconfiguration_cost,
                    elapsed_seconds=self._timer.elapsed,
                    matched_fraction=algorithm.matched_fraction,
                ),
            )

    def feed(self, segment: Trace) -> None:
        """Serve the next contiguous trace segment.

        Segments must arrive in global order (``segment.offset`` equal to the
        number of requests already served) — exactly what iterating a
        :class:`~repro.traffic.stream.TraceStream` yields.
        """
        if self._finished:
            raise SimulationError("finish() was already called on this drive")
        if segment.n_nodes != self.metadata.n_nodes:
            raise SimulationError(
                f"segment addresses {segment.n_nodes} racks, stream declared "
                f"{self.metadata.n_nodes}"
            )
        if segment.offset != self._served:
            raise SimulationError(
                f"segment starts at global index {segment.offset}, expected "
                f"{self._served}; feed contiguous segments in order"
            )
        end = self._served + len(segment)
        if self.declared_n_requests is not None and end > self.declared_n_requests:
            raise SimulationError(
                f"stream declared {self.declared_n_requests} requests but "
                f"delivered at least {end}"
            )
        if self._use_batched:
            self._feed_batched(segment, end)
        else:
            self._feed_reference(segment)

    def _feed_batched(self, segment: Trace, end: int) -> None:
        checkpoints = self._checkpoints
        n_cp = len(checkpoints) if checkpoints is not None else 0
        base = segment.offset
        watchers = self._watchers
        while self._served < end:
            # Same boundaries as the materialized batched path — checkpoints
            # and observer intervals — plus the segment end; extra splits at
            # segment ends cannot change results (exact integral-float sums).
            stop = end
            if checkpoints is not None and self._next_cp < n_cp:
                stop = min(stop, checkpoints[self._next_cp])
            if self._batch_interval is not None:
                stop = min(stop, self._batch_start + self._batch_interval)
            sub = segment[self._served - base : stop - base]
            with self._timer:
                self.algorithm.serve_batch(sub)
            self._served = stop
            at_checkpoint = (
                checkpoints is not None
                and self._next_cp < n_cp
                and self._served >= checkpoints[self._next_cp]
            )
            if self._notify and self._served > self._batch_start:
                interval_reached = (
                    self._batch_interval is not None
                    and self._served - self._batch_start >= self._batch_interval
                )
                if interval_reached or at_checkpoint:
                    watchers.on_request_batch(
                        self._context, self._batch_start, self._served
                    )
                    self._batch_start = self._served
            if at_checkpoint:
                self._record_checkpoint(self._next_cp, self._served)
                self._next_cp += 1

    def _feed_reference(self, segment: Trace) -> None:
        checkpoints = self._checkpoints
        n_cp = len(checkpoints) if checkpoints is not None else 0
        watchers = self._watchers
        for request in segment.requests():
            with self._timer:
                self.algorithm.serve(request)
            self._served += 1
            if self.config.collect_matching_history:
                self._matching_history.append(self.algorithm.matching.edges)
            at_checkpoint = (
                checkpoints is not None
                and self._next_cp < n_cp
                and self._served >= checkpoints[self._next_cp]
            )
            if (
                self._notify
                and self._batch_interval is not None
                and self._served - self._batch_start >= self._batch_interval
            ):
                watchers.on_request_batch(self._context, self._batch_start, self._served)
                self._batch_start = self._served
            if at_checkpoint:
                if self._notify and self._served > self._batch_start:
                    watchers.on_request_batch(
                        self._context, self._batch_start, self._served
                    )
                    self._batch_start = self._served
                self._record_checkpoint(self._next_cp, self._served)
                self._next_cp += 1

    def finish(self) -> RunResult:
        """Flush the tail, validate exhaustion, and assemble the result."""
        if self._finished:
            raise SimulationError("finish() was already called on this drive")
        self._finished = True
        n = self._served
        if n == 0:
            raise SimulationError("cannot simulate an empty trace")
        if self.declared_n_requests is not None and n != self.declared_n_requests:
            raise SimulationError(
                f"stream declared {self.declared_n_requests} requests but "
                f"delivered {n}"
            )
        if self._checkpoints is not None and self._next_cp < len(self._checkpoints):
            raise SimulationError(
                f"checkpoint_positions reach {self._checkpoints[-1]} but the "
                f"stream delivered only {n} requests"
            )
        # Flush the trailing partial batch (same contract as the materialized
        # paths): observers see every request exactly once before on_end.
        if self._notify and self._served > self._batch_start:
            self._watchers.on_request_batch(self._context, self._batch_start, self._served)
            self._batch_start = self._served
        if self._checkpoints is None:
            self._record_checkpoint(0, n)
        result = _assemble_result(
            self.algorithm, self.config, self.metadata.name, n,
            self._cp_requests, self._cp_routing, self._cp_reconf,
            self._cp_elapsed, self._cp_matched,
            self._timer.elapsed, self._matching_history,
        )
        if self._notify:
            self._watchers.on_end(self._context, result)
        return result
