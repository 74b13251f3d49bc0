"""Sharded execution: bit-identity, worker hygiene, and spec portability.

The sharding contract (see :mod:`repro.exec.scheduler`) is that moving
runs into worker processes may change *nothing* about the results: workers
rebuild traces deterministically from their specs, so a parallel figure panel
must be bit-identical to the sequential one.  Pool-spawning tests carry the
``parallel`` marker and are auto-skipped on single-CPU hosts (see
``tests/conftest.py``); the pure-logic tests (chunk sizing, trace cache,
pickle validation) always run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, WorkerExecutionError
from repro.experiments import ExperimentSpec
from repro.exec import default_chunksize, runtime
from repro.exec.scheduler import _check_picklable
from repro.simulation import ExperimentRunner, run_specs_parallel


def _panel_specs(algorithms=("rbma", "bma", "oblivious", "rotor")):
    return [
        ExperimentSpec(
            algorithm={"name": name, "b": 3, "alpha": 4.0},
            traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 400}},
            simulation={"checkpoints": 5},
        )
        for name in algorithms
    ]


def _assert_series_identical(a, b, what):
    assert a.routing_cost_mean == b.routing_cost_mean, what
    assert np.array_equal(a.series.requests, b.series.requests), what
    assert np.array_equal(a.series.routing_cost, b.series.routing_cost), what
    assert np.array_equal(
        a.series.reconfiguration_cost, b.series.reconfiguration_cost
    ), what
    assert np.array_equal(a.series.matched_fraction, b.series.matched_fraction), what


# --------------------------------------------------------------------------- #
# Pure-logic pieces (no pool)
# --------------------------------------------------------------------------- #


def test_default_chunksize_balances_dispatch_and_cache_hits():
    # Many small specs: several consecutive specs per task ...
    assert default_chunksize(100, 4) == 6
    # ... but every worker still sees multiple chunks for load balancing.
    assert default_chunksize(100, 4) * 4 * 4 <= 100
    # Degenerate inputs clamp to 1 instead of 0.
    assert default_chunksize(1, 8) == 1
    assert default_chunksize(0, 8) == 1


def test_worker_trace_cache_returns_identical_workloads():
    runtime._TRACE_CACHE.clear()  # start from an empty cache, as a fresh worker would
    spec = _panel_specs(["rbma"])[0].with_seed(13)
    first = runtime.cached_trace(spec)
    second = runtime.cached_trace(spec)
    assert second is first  # memoised within the process
    rebuilt = spec.build_trace()
    assert np.array_equal(first.sources, rebuilt.sources)
    assert np.array_equal(first.destinations, rebuilt.destinations)


def test_worker_trace_cache_never_caches_unseeded_specs():
    runtime._TRACE_CACHE.clear()
    spec = _panel_specs(["rbma"])[0].with_seed(None)
    first = runtime.cached_trace(spec)
    second = runtime.cached_trace(spec)
    # Fresh entropy per run: caching would silently correlate repetitions.
    assert second is not first


def test_unpicklable_spec_is_rejected_before_dispatch():
    bad = ExperimentSpec(
        algorithm={"name": "rbma", "b": 2, "alpha": 1.0,
                   "params": {"paging_factory": lambda capacity, rng: None}},
        traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 50}},
        seed=None,
    )
    with pytest.raises(SimulationError, match="pickl"):
        _check_picklable([bad])


def test_single_worker_falls_back_to_in_process_execution():
    specs = [s.with_seed(3) for s in _panel_specs(["rbma", "oblivious"])]
    results = run_specs_parallel(specs, n_workers=1)
    assert [r.algorithm for r in results] == ["rbma", "oblivious"]


def _failing_spec() -> ExperimentSpec:
    """A spec that validates but fails inside the engine at run time."""
    return ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 40}},
        # Positions beyond the trace length pass config validation (the
        # trace length is unknown there) and explode inside run_simulation.
        simulation={"checkpoint_positions": [999]},
        seed=5,
    )


def test_worker_failure_names_the_failing_spec():
    """Regression: a failing run must identify its spec, not just the error.

    A 500-spec sweep dying with a bare "checkpoint_positions reach 999"
    used to leave no way to tell *which* spec was broken; the re-raised
    error must carry the spec's JSON (algorithm/topology/seed).
    """
    ok = _panel_specs(["rbma"])[0].with_seed(3)
    with pytest.raises(WorkerExecutionError) as excinfo:
        run_specs_parallel([ok, _failing_spec()], n_workers=1)
    message = str(excinfo.value)
    assert "failing spec" in message
    assert '"rbma"' in message and '"zipf"' in message
    assert '"seed": 5' in message
    assert "checkpoint_positions reach 999" in message
    # The original error class is named even though the exception object
    # itself would not survive a process boundary.
    assert "SimulationError" in message


@pytest.mark.parallel
def test_worker_failure_context_survives_the_process_boundary():
    """The same context must arrive intact from a real pool worker."""
    specs = [s.with_seed(3) for s in _panel_specs(["rbma", "oblivious"])]
    specs.append(_failing_spec())
    with pytest.raises(WorkerExecutionError) as excinfo:
        run_specs_parallel(specs, n_workers=2, chunksize=1)
    message = str(excinfo.value)
    assert "failing spec" in message
    assert '"seed": 5' in message


# --------------------------------------------------------------------------- #
# Pool-backed bit-identity (auto-skipped on single-CPU hosts)
# --------------------------------------------------------------------------- #


@pytest.mark.parallel
def test_compare_on_shared_trace_parallel_bit_identical():
    """Sharded figure panels must match sequential ones exactly.

    This is the engine-level guarantee the sharded benchmark pipeline rests
    on: per repetition every spec spawns the same trace seed, so a worker
    rebuilding the trace produces the byte-identical workload the sequential
    path shares in-process.
    """
    specs = _panel_specs(("rbma", "bma", "oblivious", "rotor", "predictive",
                          "hybrid", "uniform", "greedy"))
    sequential = ExperimentRunner(repetitions=3, base_seed=2023).compare_on_shared_trace(specs)
    parallel = ExperimentRunner(repetitions=3, base_seed=2023).compare_on_shared_trace(
        specs, n_workers=2
    )
    assert list(sequential) == list(parallel)
    for label in sequential:
        _assert_series_identical(sequential[label], parallel[label], label)


@pytest.mark.parallel
def test_run_many_parallel_bit_identical():
    specs = _panel_specs(("rbma", "bma"))
    runner_seq = ExperimentRunner(repetitions=2, base_seed=5)
    runner_par = ExperimentRunner(repetitions=2, base_seed=5)
    for seq, par in zip(
        runner_seq.run_many(specs), runner_par.run_many(specs, n_workers=2)
    ):
        assert seq.label == par.label
        _assert_series_identical(seq, par, seq.label)


@pytest.mark.parallel
def test_run_specs_parallel_preserves_order_with_chunking():
    specs = [s.with_seed(7) for s in _panel_specs(("rbma", "oblivious", "greedy"))]
    results = run_specs_parallel(specs * 2, n_workers=2, chunksize=2)
    assert [r.algorithm for r in results] == ["rbma", "oblivious", "greedy"] * 2
