"""Ablation A7 — prediction-augmented algorithms (the paper's §5 outlook).

Compares the purely online R-BMA against the prediction-based PredictiveBMA
and the robust combiner HybridBMA on the Facebook-database-like workload
(strong but drifting temporal structure).  The question from the paper's
conclusion is whether predictions can help without giving up robustness; the
combiner should track the better of its two experts up to a constant factor.
"""

import _harness as harness

from repro.analysis import format_comparison_table
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner

ALGORITHMS = {
    "rbma": {},
    "predictive": {"period": 500, "window": 2000},
    "hybrid": {"period": 500, "window": 2000},
    "oblivious": {},
}


def _run():
    traffic = {"name": "facebook-database",
               "params": {"n_nodes": 100, "n_requests": harness.scaled_requests(350_000)}}
    specs = [
        ExperimentSpec(
            algorithm={"name": name, "b": 12, "alpha": harness.DEFAULT_ALPHA,
                       "params": params},
            traffic=traffic,
            simulation={"checkpoints": 5},
            seed=None,
        )
        for name, params in ALGORITHMS.items()
    ]
    harness.check_specs_picklable(specs)
    runner = ExperimentRunner(repetitions=harness.bench_repetitions(), base_seed=29)
    return runner.compare_on_shared_trace(specs, n_workers=harness.bench_workers())


def test_ablation_predictions(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    oblivious_label = next(label for label in results if label.startswith("oblivious"))
    table = format_comparison_table(results, oblivious_label=oblivious_label)
    harness.write_output(
        "ablation_predictions",
        "Ablation A7 — prediction-augmented algorithms (facebook-database, b = 12)\n" + table,
    )
