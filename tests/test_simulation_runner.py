"""Tests for the declarative runner, sweeps, and the parallel executor."""

from dataclasses import replace

import pytest

from repro.config import SweepConfig
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner, run_specs_parallel, run_sweep
from repro.simulation.runner import execute_experiment_spec


SMALL_WORKLOAD = dict(n_nodes=12, n_requests=300)


def _spec(algorithm="rbma", b=2, topology="fat-tree", seed=None):
    return ExperimentSpec(
        algorithm={"name": algorithm, "b": b, "alpha": 4.0},
        traffic={"name": "zipf", "params": {**SMALL_WORKLOAD, "exponent": 1.3}},
        topology={"name": topology},
        simulation={"checkpoints": 5},
        seed=seed,
    )


def _without_wall_clock(aggregate):
    data = aggregate.to_dict()
    data["series"].pop("elapsed_seconds")
    return {k: v for k, v in data.items() if not k.startswith("elapsed_seconds")}


class TestExecuteRunSpec:
    def test_basic_execution(self):
        result = execute_experiment_spec(_spec(seed=1))
        assert result.algorithm == "rbma"
        assert result.n_requests == 300
        assert result.workload == "zipf"
        assert result.topology.startswith("fat-tree")

    def test_seed_reproducibility(self):
        a = execute_experiment_spec(_spec(seed=3))
        b = execute_experiment_spec(_spec(seed=3))
        assert a.total_routing_cost == b.total_routing_cost

    def test_shared_trace_override(self):
        from repro.traffic import zipf_pair_trace

        trace = zipf_pair_trace(n_nodes=12, n_requests=200, seed=5)
        result = execute_experiment_spec(_spec(), trace=trace)
        assert result.n_requests == 200

    def test_alternative_topology(self):
        spec = _spec(topology="leaf-spine", seed=0)
        result = execute_experiment_spec(spec)
        assert result.topology.startswith("leaf-spine")

    def test_with_seed_copy(self):
        spec = _spec()
        assert spec.with_seed(9).seed == 9
        assert spec.seed is None


class TestExperimentRunner:
    def test_aggregates_repetitions(self):
        runner = ExperimentRunner(repetitions=2, base_seed=1)
        agg = runner.run(_spec())
        assert agg.repetitions == 2
        assert agg.algorithm == "rbma"

    def test_run_many(self):
        runner = ExperimentRunner(repetitions=1, base_seed=0)
        results = runner.run_many([_spec(algorithm="rbma"), _spec(algorithm="oblivious")])
        assert [r.algorithm for r in results] == ["rbma", "oblivious"]

    def test_compare_on_shared_trace(self):
        runner = ExperimentRunner(repetitions=1, base_seed=2)
        results = runner.compare_on_shared_trace(
            [_spec(algorithm="rbma", b=2), _spec(algorithm="oblivious", b=2)]
        )
        assert set(results) == {"rbma (b: 2)", "oblivious (b: 2)"}
        # Same workload and checkpoints, so the grids coincide.
        rbma, obl = results["rbma (b: 2)"], results["oblivious (b: 2)"]
        assert (rbma.series.requests == obl.series.requests).all()
        assert rbma.routing_cost_mean <= obl.routing_cost_mean

    def test_compare_requires_same_workload(self):
        runner = ExperimentRunner()
        other = ExperimentSpec(algorithm={"name": "rbma", "b": 2},
                               traffic={"name": "uniform", "params": SMALL_WORKLOAD},
                               simulation={"checkpoints": 5}, seed=None)
        with pytest.raises(ConfigurationError):
            runner.compare_on_shared_trace([_spec(), other])

    @pytest.mark.parametrize("name, streaming", [("zipf", True), ("ZIPF", False)])
    def test_compare_accepts_specs_sharing_a_workload(self, name, streaming):
        """A streamed spec, or a name in another case, is the same workload."""
        first = _spec(algorithm="rbma")
        second = replace(
            _spec(algorithm="bma"),
            traffic=replace(first.traffic, name=name, streaming=streaming,
                            chunk_size=64 if streaming else None),
        )
        runner = ExperimentRunner(repetitions=2, base_seed=2, store=False)
        results = runner.compare_on_shared_trace([first, second])
        for spec in (first, second):
            alone = runner.compare_on_shared_trace([spec])[spec.label]
            assert _without_wall_clock(results[spec.label]) == _without_wall_clock(alone)

    def test_repetition_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(repetitions=0)


class TestSweep:
    def test_cross_product_results(self):
        sweep = SweepConfig(b_values=(1, 2), alpha_values=(4.0,), algorithms=("rbma", "oblivious"))
        results = run_sweep(sweep, workload="zipf", workload_kwargs=SMALL_WORKLOAD,
                            checkpoints=4, base_seed=1)
        assert len(results) == 4
        labels = {(r.algorithm, r.b) for r in results}
        assert labels == {("rbma", 1), ("rbma", 2), ("oblivious", 1), ("oblivious", 2)}

    def test_rejects_bad_repetitions(self):
        sweep = SweepConfig(b_values=(1,), algorithms=("oblivious",))
        with pytest.raises(ConfigurationError):
            run_sweep(sweep, workload="zipf", repetitions=0)


class TestParallel:
    def test_empty(self):
        assert run_specs_parallel([]) == []

    def test_single_worker_inline(self):
        results = run_specs_parallel([_spec(seed=0)], n_workers=1)
        assert len(results) == 1

    def test_multi_worker_matches_sequential(self):
        specs = [_spec(algorithm="oblivious", seed=1), _spec(algorithm="rbma", seed=1)]
        sequential = [execute_experiment_spec(s) for s in specs]
        parallel = run_specs_parallel(specs, n_workers=2)
        assert [r.algorithm for r in parallel] == [r.algorithm for r in sequential]
        for p, s in zip(parallel, sequential):
            assert p.total_routing_cost == pytest.approx(s.total_routing_cost)

    def test_invalid_worker_count(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run_specs_parallel([_spec()], n_workers=0)
