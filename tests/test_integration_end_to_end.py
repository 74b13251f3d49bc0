"""End-to-end integration tests: full pipeline from workload to report."""

import numpy as np
import pytest

from repro.analysis import format_comparison_table, format_series_table, routing_cost_reduction
from repro.config import SweepConfig
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner, run_sweep
from repro.traffic import available_workloads


WORKLOAD_KWARGS = dict(n_nodes=20, n_requests=1500)


def _specs(workload, b_values, algorithms, alpha=8.0, extra_kwargs=None):
    kwargs = {**WORKLOAD_KWARGS, **(extra_kwargs or {})}
    specs = []
    for algorithm in algorithms:
        for b in b_values:
            specs.append(
                ExperimentSpec(
                    algorithm={"name": algorithm, "b": b, "alpha": alpha},
                    traffic={"name": workload, "params": kwargs},
                    simulation={"checkpoints": 6},
                    seed=None,
                )
            )
    return specs


class TestFullPipeline:
    def test_facebook_database_panel(self):
        """A miniature Figure 1a: R-BMA and BMA beat Oblivious, benefit grows with b."""
        runner = ExperimentRunner(repetitions=2, base_seed=3)
        specs = _specs("facebook-database", b_values=(2, 6), algorithms=("rbma", "bma"))
        specs.append(
            ExperimentSpec(algorithm={"name": "oblivious", "b": 2, "alpha": 8.0},
                           traffic={"name": "facebook-database", "params": WORKLOAD_KWARGS},
                           simulation={"checkpoints": 6}, seed=None)
        )
        results = runner.compare_on_shared_trace(specs)
        oblivious = results["oblivious (b: 2)"]
        for label, result in results.items():
            if label.startswith("oblivious"):
                continue
            assert routing_cost_reduction(result, oblivious) > 0.05
        # Larger b helps R-BMA.
        assert results["rbma (b: 6)"].routing_cost_mean <= results["rbma (b: 2)"].routing_cost_mean

    def test_rbma_and_bma_are_close(self):
        """The paper's observation: R-BMA achieves roughly BMA's routing cost."""
        runner = ExperimentRunner(repetitions=2, base_seed=5)
        specs = _specs("facebook-web", b_values=(4,), algorithms=("rbma", "bma"))
        results = runner.compare_on_shared_trace(specs)
        rbma = results["rbma (b: 4)"].routing_cost_mean
        bma = results["bma (b: 4)"].routing_cost_mean
        assert abs(rbma - bma) / bma < 0.25

    def test_sobma_wins_on_microsoft(self):
        """The paper's observation: without temporal structure the static
        offline matching has a clear advantage."""
        runner = ExperimentRunner(repetitions=1, base_seed=7)
        specs = _specs("microsoft", b_values=(4,), algorithms=("so-bma", "rbma"),
                       extra_kwargs={"n_nodes": 20})
        results = runner.compare_on_shared_trace(specs)
        assert (
            results["so-bma (b: 4)"].routing_cost_mean
            <= results["rbma (b: 4)"].routing_cost_mean
        )

    def test_sweep_and_tables_render(self):
        sweep = SweepConfig(b_values=(2, 4), alpha_values=(8.0,), algorithms=("rbma", "oblivious"))
        results = run_sweep(sweep, workload="facebook-hadoop", workload_kwargs=WORKLOAD_KWARGS,
                            checkpoints=5, base_seed=1)
        by_label = {r.label: r for r in results}
        table = format_comparison_table(by_label, oblivious_label="oblivious (b: 2)")
        assert "rbma (b: 4)" in table
        # Series tables need a shared grid, which the sweep guarantees per workload size.
        series = format_series_table(by_label, metric="routing_cost", title="sweep")
        assert "sweep" in series

    def test_every_registered_workload_simulates(self):
        """Smoke test: every workload in the registry runs through R-BMA."""
        runner = ExperimentRunner(repetitions=1, base_seed=0)
        for workload in available_workloads():
            kwargs = dict(n_nodes=10, n_requests=200)
            if workload == "hotspot":
                kwargs["n_hot_pairs"] = 3
            agg = runner.run(
                ExperimentSpec(algorithm={"name": "rbma", "b": 2, "alpha": 4.0},
                               traffic={"name": workload, "params": kwargs},
                               simulation={"checkpoints": 4}, seed=None)
            )
            assert agg.n_requests == 200
            assert agg.routing_cost_mean > 0

    def test_parallel_sweep_matches_sequential(self):
        sweep = SweepConfig(b_values=(2,), alpha_values=(8.0,), algorithms=("oblivious", "greedy"))
        sequential = run_sweep(sweep, workload="zipf", workload_kwargs=WORKLOAD_KWARGS,
                               checkpoints=4, base_seed=2, n_workers=1)
        parallel = run_sweep(sweep, workload="zipf", workload_kwargs=WORKLOAD_KWARGS,
                             checkpoints=4, base_seed=2, n_workers=2)
        for s, p in zip(sequential, parallel):
            assert s.algorithm == p.algorithm
            assert s.routing_cost_mean == pytest.approx(p.routing_cost_mean)
