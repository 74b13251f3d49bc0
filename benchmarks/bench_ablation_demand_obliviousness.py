"""Ablation A5 — demand-aware vs. demand-oblivious reconfiguration.

The paper's related-work discussion contrasts demand-aware designs (the
b-matching algorithms studied here) with demand-oblivious rotor-style designs
(RotorNet, Sirius) that cycle through a fixed schedule of matchings.  This
ablation runs both on the same workloads: on skewed, bursty traffic the
demand-aware algorithms should serve far more traffic over optical links than
the rotor, while on near-uniform traffic the gap closes — quantifying how much
of the benefit comes from demand-awareness itself.
"""

import _harness as harness

from repro.analysis import format_comparison_table
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner

WORKLOADS = {
    "facebook-database": {"n_nodes": 100, "n_requests": None},
    "uniform": {"n_nodes": 100, "n_requests": None},
}


def _run():
    tables = {}
    runner = ExperimentRunner(repetitions=harness.bench_repetitions(), base_seed=23)
    for workload, kwargs in WORKLOADS.items():
        workload_kwargs = dict(kwargs)
        workload_kwargs["n_requests"] = harness.scaled_requests(350_000)
        specs = [
            ExperimentSpec(
                algorithm={"name": algorithm, "b": 12, "alpha": harness.DEFAULT_ALPHA,
                           "params": {"period": 200} if algorithm == "rotor" else {}},
                traffic={"name": workload, "params": workload_kwargs},
                simulation={"checkpoints": 5},
                seed=None,
            )
            for algorithm in ("rbma", "rotor", "oblivious")
        ]
        harness.check_specs_picklable(specs)
        tables[workload] = runner.compare_on_shared_trace(
            specs, n_workers=harness.bench_workers()
        )
    return tables


def test_ablation_demand_obliviousness(benchmark):
    tables = benchmark.pedantic(_run, rounds=1, iterations=1)
    sections = []
    for workload, results in tables.items():
        oblivious_label = next(label for label in results if label.startswith("oblivious"))
        sections.append(f"--- {workload} ---\n"
                        + format_comparison_table(results, oblivious_label=oblivious_label))
    harness.write_output(
        "ablation_demand_obliviousness",
        "Ablation A5 — demand-aware (R-BMA) vs demand-oblivious (rotor) reconfiguration\n\n"
        + "\n\n".join(sections),
    )
