"""Ablation A3 — paging policy inside R-BMA.

The paper's analysis requires the per-node caches to run a competitive
randomized paging algorithm (marking / Young); this ablation replaces it with
deterministic policies (LRU, FIFO, LFU) and naive random eviction to measure
how much of R-BMA's empirical performance is due to the marking phase
structure versus simply caching recently used pairs.
"""

import _harness as harness

from repro.analysis import format_comparison_table
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner

POLICIES = ("marking", "lru", "fifo", "lfu", "random")


def _run_ablation():
    traffic = {"name": "facebook-database",
               "params": {"n_nodes": 100, "n_requests": harness.scaled_requests(350_000)}}
    specs = [
        ExperimentSpec(
            algorithm={"name": "rbma", "b": 12, "alpha": harness.DEFAULT_ALPHA,
                       "params": {"paging_policy": policy}},
            traffic=traffic,
            simulation={"checkpoints": 5},
            seed=None,
        )
        for policy in POLICIES
    ]
    specs.append(
        ExperimentSpec(algorithm={"name": "oblivious", "b": 12, "alpha": harness.DEFAULT_ALPHA},
                       traffic=traffic, simulation={"checkpoints": 5}, seed=None)
    )
    harness.check_specs_picklable(specs)
    runner = ExperimentRunner(repetitions=harness.bench_repetitions(), base_seed=17)
    aggregates = runner.run_many(specs, n_workers=harness.bench_workers())
    per_policy = {}
    for policy, agg in zip(list(POLICIES) + ["oblivious"], aggregates):
        per_policy[f"rbma[{policy}]" if policy != "oblivious" else "oblivious"] = agg
    return per_policy


def test_ablation_paging_policy(benchmark):
    results = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    table = format_comparison_table(results, oblivious_label="oblivious")
    harness.write_output(
        "ablation_paging_policy",
        "Ablation A3 — per-node paging policy inside R-BMA (b = 12)\n" + table,
    )
