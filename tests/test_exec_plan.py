"""Execution planning and scheduler backends: the plan → scheduler → results
plane contract (see :mod:`repro.exec`).

* :func:`build_execution_plan` canonicalizes mixed spec inputs, serves
  run-store hits before dispatch, aliases duplicate fingerprints within a
  plan, groups shared-workload specs into lockstep tasks, and pre-solves
  SO-BMA demand once in the parent.
* :func:`execute_plan` on the ``serial`` backend is the reference: results
  must be bit-identical to the legacy sequential paths, every computed
  result carries ``extra["scheduler_backend"]``/``["attempts"]``
  provenance, and ``on_error="collect"`` turns failures into
  :class:`RunFailure` records without discarding completed work.
* ``REPRO_WORKERS`` supplies worker-count defaults (explicit wins).

Pure-logic and serial-backend tests run everywhere.  The one failure record
is also checked on the pool (``parallel`` marker) and queue (``sched``
marker) backends; the rest of the subprocess-backed queue tier lives in
``tests/test_exec_queue.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError, WorkerExecutionError
from repro.exec import (
    RunFailure,
    build_execution_plan,
    execute_plan,
    resolve_backend_name,
    resolve_worker_count,
)
from repro.experiments import ExperimentSpec
from repro.matching import static_solver
from repro.simulation import run_specs_parallel
from repro.simulation.results import RunResult
from repro.simulation.runner import execute_experiment_spec
from repro.store import RunStore, fingerprint_spec

SEED = 2023


def _spec(name="rbma", seed=SEED, **traffic_overrides):
    params = {"n_nodes": 10, "n_requests": 200, **traffic_overrides}
    return ExperimentSpec(
        algorithm={"name": name, "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": params},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _so_bma_spec(seed=SEED):
    return ExperimentSpec(
        algorithm={"name": "so-bma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 200}},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _failing_spec():
    """Validates, then explodes inside the engine (positions past the trace)."""
    return ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 40}},
        simulation={"checkpoint_positions": [999]},
        seed=5,
    )


def _assert_series_identical(a, b):
    assert np.array_equal(a.series.requests, b.series.requests)
    assert np.array_equal(a.series.routing_cost, b.series.routing_cost)
    assert np.array_equal(a.series.reconfiguration_cost, b.series.reconfiguration_cost)
    assert np.array_equal(a.series.matched_fraction, b.series.matched_fraction)
    assert a.total_routing_cost == b.total_routing_cost


# --------------------------------------------------------------------------- #
# Plan construction
# --------------------------------------------------------------------------- #


class TestPlanConstruction:
    def test_mixed_inputs_canonicalize_and_group_by_shared_trace(self):
        mapping = {
            "algorithm": {"name": "bma", "b": 3},
            "traffic": {"name": "zipf", "params": {"n_nodes": 10, "n_requests": 200}},
            "seed": SEED,
        }
        specs = [_spec("rbma"), mapping, _spec("oblivious", seed=SEED + 1)]
        plan = build_execution_plan(specs, store=False)
        assert all(isinstance(s, ExperimentSpec) for s in plan.specs)
        # rbma and the mapping's bma spec share (workload, params, seed); the
        # reseeded oblivious spec gets its own task.
        assert plan.describe() == {
            "specs": 3,
            "pending": 3,
            "cached": 0,
            "aliased": 0,
            "tasks": 2,
            "presolved": 0,
        }
        assert plan.tasks[0].indices == (0, 1)
        assert plan.tasks[1].indices == (2,)

    def test_unseeded_specs_never_share_a_task(self):
        specs = [_spec(seed=None), _spec(seed=None)]
        plan = build_execution_plan(specs, store=False)
        assert len(plan.tasks) == 2  # fresh entropy per run: sharing would correlate

    def test_task_payload_round_trips_through_json(self):
        plan = build_execution_plan([_spec("rbma"), _spec("bma")], store=False)
        from repro.exec import PlanTask
        import json

        payload = json.loads(json.dumps(plan.tasks[0].to_payload()))
        rebuilt = PlanTask.from_payload(payload)
        assert rebuilt.task_id == plan.tasks[0].task_id
        assert rebuilt.indices == plan.tasks[0].indices
        assert rebuilt.specs == plan.tasks[0].specs

    def test_on_error_mode_is_validated(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            build_execution_plan([_spec()], store=False, on_error="ignore")


class TestStoreDedupe:
    def test_warm_entries_are_served_before_dispatch(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = _spec("rbma")
        [cold] = run_specs_parallel([spec], store=store)
        plan = build_execution_plan([spec, _spec("bma")], store=store)
        assert plan.describe()["cached"] == 1
        assert plan.describe()["pending"] == 1
        [hit, computed] = execute_plan(plan, backend="serial")
        _assert_series_identical(hit, cold)
        assert computed.algorithm == "bma"

    def test_duplicate_fingerprints_execute_once_and_alias(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = _spec("rbma")
        plan = build_execution_plan([spec, spec, _spec("bma")], store=store)
        assert plan.describe()["aliased"] == 1
        assert plan.describe()["pending"] == 2
        results = execute_plan(plan, backend="serial")
        assert len(results) == 3
        _assert_series_identical(results[0], results[1])
        # One store entry per distinct fingerprint, not per input slot.
        assert store.contains(fingerprint_spec(spec))
        assert len(store.list_runs()) == 2


class TestPresolve:
    def test_so_bma_demand_is_solved_once_in_the_parent(self):
        static_solver.solver_cache_clear()
        specs = [_so_bma_spec(), _spec("rbma")]
        plan = build_execution_plan(specs, store=False)
        assert plan.describe()["presolved"] == 1
        after_plan = static_solver.solver_cache_info()
        assert after_plan["misses"] == 1  # the parent's single pre-solve
        results = execute_plan(plan, backend="serial")
        after_run = static_solver.solver_cache_info()
        # Execution re-used the pre-solved rounds: hits only, no new solve.
        assert after_run["misses"] == 1
        assert after_run["hits"] > after_plan["hits"]
        # And the result is bit-identical to a cold standalone execution.
        static_solver.solver_cache_clear()
        _assert_series_identical(results[0], _so_bma_spec().execute())

    def test_execution_reuses_the_presolved_trace(self, monkeypatch):
        plan = build_execution_plan([_so_bma_spec(), _spec("rbma")], store=False)
        built = []
        real = ExperimentSpec.build_trace
        monkeypatch.setattr(
            ExperimentSpec, "build_trace",
            lambda self, *a, **k: built.append(self) or real(self, *a, **k))
        execute_plan(plan, backend="serial")
        assert built == []  # the pre-solve's trace served both specs


# --------------------------------------------------------------------------- #
# Serial backend: reference semantics
# --------------------------------------------------------------------------- #


class TestSerialBackend:
    def test_serial_matches_legacy_sequential_execution(self):
        specs = [_spec(name) for name in ("rbma", "bma", "oblivious")]
        results = execute_plan(build_execution_plan(specs, store=False))
        for spec, result in zip(specs, results):
            _assert_series_identical(result, execute_experiment_spec(spec))

    def test_results_carry_scheduler_provenance(self):
        [result] = run_specs_parallel([_spec()], n_workers=1)
        assert result.extra["scheduler_backend"] == "serial"
        assert result.extra["attempts"] == 1

    def test_raise_mode_propagates_with_spec_context(self):
        with pytest.raises(WorkerExecutionError) as excinfo:
            run_specs_parallel([_spec(), _failing_spec()], n_workers=1)
        message = str(excinfo.value)
        assert "failing spec" in message
        assert '"seed": 5' in message

    @pytest.mark.parametrize(
        "backend, workers, streaming",
        [
            ("serial", 1, False),
            ("serial", 1, True),
            pytest.param("pool", 2, False, marks=pytest.mark.parallel),
            pytest.param("queue", 2, False, marks=pytest.mark.sched),
        ],
        ids=["serial-plain", "serial-streaming", "pool", "queue"],
    )
    def test_collect_mode_keeps_completed_work(self, backend, workers, streaming):
        bad = _failing_spec()
        if streaming:
            bad = bad.with_streaming(chunk_size=16)
        specs = [_spec("rbma"), bad, _spec("bma")]
        results = run_specs_parallel(specs, n_workers=workers, backend=backend,
                                     on_error="collect")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[2], RunResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.scheduler_backend == backend
        # Every backend yields the same record; only the backend stamp differs.
        assert failure.index == 1
        assert failure.spec == bad.to_dict()
        assert failure.error_type == "SimulationError"
        assert failure.attempts == 1
        assert "checkpoint_positions reach 999" in failure.message
        assert f"failing spec: {json.dumps(bad.to_dict(), sort_keys=True)}" in failure.message

    def test_streaming_specs_take_the_rich_path_and_stay_identical(self):
        bulk = _spec("rbma", n_requests=300)
        streamed = ExperimentSpec(
            algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
            traffic={"name": "zipf",
                     "params": {"n_nodes": 10, "n_requests": 300},
                     "streaming": True, "chunk_size": 64},
            simulation={"checkpoints": 4},
            seed=SEED,
        )
        [a] = execute_plan(build_execution_plan([bulk], store=False))
        [b] = execute_plan(build_execution_plan([streamed], store=False))
        _assert_series_identical(a, b)


# --------------------------------------------------------------------------- #
# Worker-count and backend resolution
# --------------------------------------------------------------------------- #


class TestWorkerResolution:
    def test_explicit_count_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(None) == 7

    def test_falsey_tokens_fall_back(self, monkeypatch):
        for token in ("", "0", "off", "none"):
            monkeypatch.setenv("REPRO_WORKERS", token)
            assert resolve_worker_count(None, fallback=2) == 2

    def test_invalid_environment_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_worker_count(None, fallback=1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_worker_count(None, fallback=1) == 1

    def test_worker_count_must_be_positive(self):
        with pytest.raises(SimulationError, match="n_workers"):
            resolve_worker_count(0)

    def test_backend_defaults_follow_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_backend_name(None, 1) == "serial"
        assert resolve_backend_name(None, None) == "serial"
        assert resolve_backend_name(None, 4) == "pool"
        assert resolve_backend_name("serial", 4) == "serial"

    def test_unknown_backend_suggests_a_name(self):
        with pytest.raises(ConfigurationError, match="serial"):
            resolve_backend_name("serail", 1)
