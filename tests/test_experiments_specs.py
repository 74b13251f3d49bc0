"""Tests for the declarative ExperimentSpec tree and seed policy."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    TopologySpec,
    TrafficSpec,
    expand_grid,
    spawn_seeds,
)
from repro.simulation import ExperimentRunner, run_experiments


def _spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        algorithm={"name": "rbma", "b": 2, "alpha": 4},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 200,
                                            "exponent": 1.3}},
        seed=5,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestConstruction:
    @pytest.mark.smoke
    def test_dict_coercion(self):
        spec = _spec()
        assert isinstance(spec.algorithm, AlgorithmSpec)
        assert isinstance(spec.traffic, TrafficSpec)
        assert isinstance(spec.topology, TopologySpec)
        assert isinstance(spec.simulation, SimulationConfig)
        assert spec.topology.name == "fat-tree"

    def test_string_coercion(self):
        spec = ExperimentSpec(algorithm="oblivious", traffic="uniform", topology="ring")
        assert spec.algorithm.name == "oblivious"
        assert spec.traffic.name == "uniform"
        assert spec.topology.name == "ring"

    def test_label(self):
        assert _spec().label == "rbma (b: 2)"
        assert _spec(name="panel 1a").label == "panel 1a"

    def test_repeats_validated(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            _spec(repeats=0)

    @pytest.mark.smoke
    def test_eager_validation_of_unknown_algorithm(self):
        spec = _spec(algorithm={"name": "rmba", "b": 2})
        with pytest.raises(ConfigurationError, match="did you mean 'rbma'"):
            spec.validate()

    def test_from_dict_validates_eagerly(self):
        data = _spec().to_dict()
        data["topology"] = {"name": "fatree"}
        with pytest.raises(ConfigurationError, match="fat-tree"):
            ExperimentSpec.from_dict(data)

    def test_from_dict_rejects_unknown_keys(self):
        data = _spec().to_dict()
        data["workload"] = "zipf"  # a flat field name, not part of the spec tree
        with pytest.raises(ConfigurationError, match="unknown ExperimentSpec keys"):
            ExperimentSpec.from_dict(data)

    def test_algorithm_spec_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown AlgorithmSpec keys"):
            AlgorithmSpec.from_dict({"name": "rbma", "beta": 3})

    def test_matching_params_validated(self):
        with pytest.raises(ConfigurationError, match="b must be"):
            _spec(algorithm={"name": "rbma", "b": 0}).validate()


class TestSerialisation:
    @pytest.mark.smoke
    def test_dict_round_trip(self):
        spec = _spec(repeats=3, name="x",
                     topology={"name": "leaf-spine", "params": {"n_spines": 2}})
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = _spec()
        text = spec.to_json()
        json.loads(text)  # valid JSON document
        assert ExperimentSpec.from_json(text) == spec

    def test_round_tripped_spec_executes_identically(self):
        spec = ExperimentSpec(
            algorithm={"name": "oblivious", "b": 2, "alpha": 4.0},
            traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 100}},
            simulation={"checkpoints": 5},
            seed=3,
        )
        a = spec.execute()
        b = ExperimentSpec.from_json(spec.to_json()).execute()
        assert a.total_routing_cost == b.total_routing_cost
        assert (a.series.routing_cost == b.series.routing_cost).all()

    def test_file_round_trip(self, tmp_path):
        spec = _spec()
        path = tmp_path / "spec.json"
        spec.save_json(path)
        assert ExperimentSpec.load_json(path) == spec

    def test_malformed_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")

    def test_traffic_spec_requires_name(self):
        with pytest.raises(ConfigurationError, match="requires a workload 'name'"):
            TrafficSpec.from_dict({"params": {}})

    def test_experiment_spec_requires_algorithm_and_traffic(self):
        with pytest.raises(ConfigurationError, match="requires 'algorithm'"):
            ExperimentSpec.from_dict({"traffic": {"name": "zipf"}})


    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_example_specs_load(self, path):
        """Every shipped example spec validates (the README quickstart runs
        ``examples/spec.json``)."""
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()), validate=True)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestBuilding:
    def test_build_trace_topology_algorithm(self):
        spec = _spec()
        trace = spec.build_trace()
        topology = spec.build_topology(trace)
        algorithm = spec.build_algorithm(topology)
        assert trace.n_nodes == 10
        assert topology.n_racks == 10
        assert algorithm.name == "rbma"
        assert algorithm.config.b == 2

    def test_topology_params_pin_size(self):
        spec = _spec(topology={"name": "fat-tree", "params": {"n_racks": 32}})
        trace = spec.build_trace()
        assert spec.build_topology(trace).n_racks >= 32

    def test_self_sized_topologies_ignore_trace_hint(self):
        spec = _spec(traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 50}},
                     topology={"name": "hypercube", "params": {"dimension": 3}})
        trace = spec.build_trace()
        assert spec.build_topology(trace).n_racks == 8


class TestSeedPolicy:
    @pytest.mark.smoke
    def test_spawn_seeds_deterministic_and_distinct(self):
        assert spawn_seeds(0, 5) == spawn_seeds(0, 5)
        assert len(set(spawn_seeds(0, 100))) == 100
        assert spawn_seeds(0, 3) != spawn_seeds(1, 3)

    def test_spawn_seeds_prefix_stable(self):
        """Growing the repetition count keeps earlier seeds unchanged."""
        assert spawn_seeds(7, 8)[:3] == spawn_seeds(7, 3)

    def test_spawn_seeds_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            spawn_seeds(0, 0)

    def test_spawn_matches_numpy_seedsequence(self):
        expected = [int(c.generate_state(1)[0])
                    for c in np.random.SeedSequence(13).spawn(4)]
        assert spawn_seeds(13, 4) == expected

    def test_repetition_seeds_are_spawned(self):
        spec = _spec(repeats=4, seed=9)
        assert spec.repetition_seeds() == spawn_seeds(9, 4)

    def test_single_repetition_uses_base_seed(self):
        assert _spec(repeats=1, seed=9).repetition_seeds() == [9]

    def test_run_equals_execute_for_single_repeat(self):
        spec = _spec(seed=7)
        assert spec.run().routing_cost_mean == spec.execute().total_routing_cost

    def test_simulation_config_cannot_smuggle_repeat_policy(self):
        with pytest.raises(ConfigurationError, match="repeat/seed policy"):
            _spec(simulation={"checkpoints": 4, "repetitions": 5})
        with pytest.raises(ConfigurationError, match="repeat/seed policy"):
            _spec(simulation=SimulationConfig(checkpoints=4, seed=3))

    def test_runner_seeds_are_spawned_not_incremented(self):
        runner = ExperimentRunner(repetitions=3, base_seed=2)
        seeds = runner.repetition_seeds()
        assert seeds == spawn_seeds(2, 3)
        assert seeds != [2, 1002, 2002]  # the old hand-incremented scheme

    def test_run_seeds_decouple_trace_and_algorithm(self):
        trace_seed, algo_seed = _spec().run_seeds()
        assert trace_seed != algo_seed
        assert _spec().run_seeds() == (trace_seed, algo_seed)

    def test_none_seed_propagates(self):
        spec = _spec(seed=None, repeats=2)
        assert spec.repetition_seeds() == [None, None]
        assert spec.run_seeds() == (None, None)

    def test_run_experiments_records_distinct_spawned_seeds(self):
        spec = _spec(repeats=3, seed=21,
                     traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 60}})
        agg = run_experiments([spec])[0]
        assert agg.repetitions == 3
        # Each repetition runs under its own spawned seed and is reproducible.
        rerun = run_experiments([spec])[0]
        assert agg.routing_cost_mean == rerun.routing_cost_mean

    def test_executions_with_distinct_seeds_differ(self):
        costs = {
            _spec(seed=seed).execute().total_routing_cost
            for seed in spawn_seeds(0, 3)
        }
        assert len(costs) > 1  # different seeds give different realisations


class TestProvenance:
    def test_result_records_spec(self):
        spec = _spec()
        result = spec.execute()
        assert result.spec == spec.to_dict()
        assert ExperimentSpec.from_dict(result.spec) == spec
        assert result.seed == spec.seed

    def test_provenance_survives_json(self, tmp_path):
        result = _spec().execute()
        path = tmp_path / "result.json"
        result.save_json(path)
        from repro.simulation import RunResult

        loaded = RunResult.load_json(path)
        assert ExperimentSpec.from_dict(loaded.spec) == _spec()


class TestGridExpansion:
    def test_cartesian_order_later_keys_fastest(self):
        specs = expand_grid(_spec(), {"algorithm.name": ["rbma", "bma"],
                                      "algorithm.b": [2, 4]})
        assert [(s.algorithm.name, s.algorithm.b) for s in specs] == [
            ("rbma", 2), ("rbma", 4), ("bma", 2), ("bma", 4)
        ]

    def test_nested_param_paths(self):
        specs = expand_grid(_spec(), {"traffic.params.n_nodes": [8, 12]})
        assert [s.traffic.params["n_nodes"] for s in specs] == [8, 12]
        # untouched params survive
        assert all(s.traffic.params["exponent"] == 1.3 for s in specs)

    def test_top_level_fields(self):
        specs = expand_grid(_spec(), {"seed": [1, 2, 3]})
        assert [s.seed for s in specs] == [1, 2, 3]

    def test_custom_name_dropped_on_expansion(self):
        specs = expand_grid(_spec(name="hand label"),
                            {"algorithm.name": ["rbma", "oblivious"]})
        assert [s.label for s in specs] == ["rbma (b: 2)", "oblivious (b: 2)"]

    def test_empty_grid_returns_base(self):
        base = _spec()
        assert expand_grid(base, {}) == [base]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec field 'workload'"):
            expand_grid(_spec(), {"workload": ["zipf"]})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a sequence"):
            expand_grid(_spec(), {"algorithm.b": 4})
        with pytest.raises(ConfigurationError, match="non-empty"):
            expand_grid(_spec(), {"algorithm.b": []})

    def test_expanded_specs_are_validated(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            expand_grid(_spec(), {"algorithm.name": ["rmba"]})
