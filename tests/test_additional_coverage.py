"""Additional cross-cutting tests covering defaults and less-travelled paths."""

import numpy as np
import pytest

from repro.config import MatchingConfig, SweepConfig
from repro.core import RBMA, make_algorithm
from repro.experiments import ExperimentSpec
from repro.simulation import run_sweep
from repro.simulation.runner import execute_experiment_spec
from repro.topology import FatTreeTopology, StarTopology
from repro.traffic import database_trace, hadoop_trace, web_service_trace
from repro.types import Request


class TestScaleInvariantTraceDefaults:
    """The Facebook generators derive temporal parameters from the trace length."""

    def test_database_drift_scales_with_length(self):
        short = database_trace(n_nodes=20, n_requests=2_000, seed=0)
        long = database_trace(n_nodes=20, n_requests=8_000, seed=0)
        assert short.metadata.params["drift_interval"] * 3 <= long.metadata.params["drift_interval"] * 4
        assert short.metadata.params["drift_interval"] >= 100

    def test_web_drift_default_recorded(self):
        trace = web_service_trace(n_nodes=20, n_requests=5_000, seed=0)
        assert trace.metadata.params["drift_interval"] == 500

    def test_hadoop_job_length_scales(self):
        short = hadoop_trace(n_nodes=20, n_requests=2_000, seed=0)
        long = hadoop_trace(n_nodes=20, n_requests=20_000, seed=0)
        assert long.metadata.params["mean_job_length"] > short.metadata.params["mean_job_length"]

    def test_explicit_override_respected(self):
        trace = database_trace(n_nodes=20, n_requests=2_000, seed=0, drift_interval=777)
        assert trace.metadata.params["drift_interval"] == 777


class TestResourceAugmentedConfig:
    def test_rbma_runs_with_a_less_than_b(self, small_leafspine):
        config = MatchingConfig(b=4, alpha=4, a=2)
        algo = RBMA(small_leafspine, config, rng=0)
        for i in range(50):
            algo.serve(Request(i % 7, (i + 1) % 7))
        # The online algorithm still uses degree bound b.
        assert algo.matching.b == 4
        assert algo.theoretical_upper_bound() > 0

    def test_registry_passes_through_config(self, small_leafspine):
        algo = make_algorithm("rbma", small_leafspine, MatchingConfig(b=3, alpha=2, a=1), rng=0)
        assert algo.config.effective_a == 1


class TestRunnerTopologyHandling:
    def test_torus_spec_does_not_get_n_racks(self):
        spec = ExperimentSpec(
            algorithm={"name": "oblivious", "b": 2, "alpha": 2.0},
            traffic={"name": "uniform", "params": {"n_nodes": 16, "n_requests": 100}},
            topology={"name": "torus", "params": {"rows": 4, "cols": 4}},
            simulation={"checkpoints": 3}, seed=0,
        )
        result = execute_experiment_spec(spec)
        assert result.topology.startswith("torus")

    def test_hypercube_spec(self):
        spec = ExperimentSpec(
            algorithm={"name": "oblivious", "b": 2, "alpha": 2.0},
            traffic={"name": "uniform", "params": {"n_nodes": 16, "n_requests": 100}},
            topology={"name": "hypercube", "params": {"dimension": 4}},
            simulation={"checkpoints": 3}, seed=0,
        )
        result = execute_experiment_spec(spec)
        assert result.topology.startswith("hypercube")

    def test_star_lower_bound_spec(self):
        spec = ExperimentSpec(
            algorithm={"name": "rbma", "b": 2, "alpha": 2.0},
            traffic={"name": "uniform", "params": {"n_nodes": 8, "n_requests": 150}},
            topology={"name": "star", "params": {"n_racks": 8, "hub_is_rack": False}},
            simulation={"checkpoints": 3}, seed=1,
        )
        result = execute_experiment_spec(spec)
        assert result.n_requests == 150


class TestSweepWithMultipleAlphas:
    def test_alpha_cross_product(self):
        sweep = SweepConfig(b_values=(2,), alpha_values=(2.0, 8.0), algorithms=("rbma",))
        results = run_sweep(sweep, workload="zipf",
                            workload_kwargs={"n_nodes": 10, "n_requests": 300},
                            checkpoints=3, base_seed=4)
        alphas = sorted(r.alpha for r in results)
        assert alphas == [2.0, 8.0]
        # Lower alpha means the Theorem 1 filter forwards requests more often,
        # so the algorithm reconfigures at least as much per request.
        by_alpha = {r.alpha: r for r in results}
        changes_low = by_alpha[2.0].series.reconfiguration_cost[-1] / 2.0
        changes_high = by_alpha[8.0].series.reconfiguration_cost[-1] / 8.0
        assert changes_low >= changes_high
        assert all(r.routing_cost_mean > 0 for r in results)


class TestFatTreeVersusStarConsistency:
    """Sanity cross-check between topologies used in theory and practice."""

    def test_star_hub_distances_match_lemma1_model(self):
        topo = StarTopology(n_racks=4, hub_is_rack=True)
        # Hub-leaf pairs have length 1, so matching them never saves routing
        # cost; RBMA's threshold k_e then equals alpha.
        algo = RBMA(topo, MatchingConfig(b=2, alpha=6), rng=0)
        assert algo.threshold(topo.distance(0, 1)) == 6

    def test_fattree_mean_distance_between_two_and_four(self):
        topo = FatTreeTopology(n_racks=32)
        assert 2.0 <= topo.mean_distance() <= 4.0
