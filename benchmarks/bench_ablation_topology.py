"""Ablation A4 — fixed-network topology sensitivity.

The paper notes that the static topology only changes the cost of requests
routed over the fixed network ("network topologies with shorter paths ...
would result in lower costs").  This ablation runs R-BMA and Oblivious on the
same workload over four fixed networks — fat-tree, leaf-spine, expander, and
star — and reports the absolute costs and the relative reduction, which stays
meaningful even as the oblivious baseline changes.
"""

import _harness as harness

from repro.analysis import routing_cost_reduction
from repro.experiments import ExperimentSpec
from repro.simulation import ExperimentRunner

TOPOLOGIES = {
    "fat-tree": {},
    "leaf-spine": {},
    "expander": {"degree": 4, "seed": 1},
    "star": {},
}


def _run_ablation():
    workload_kwargs = {"n_nodes": 100, "n_requests": harness.scaled_requests(350_000)}
    runner = ExperimentRunner(repetitions=harness.bench_repetitions(), base_seed=19)
    rows = {}
    for topology, topo_kwargs in TOPOLOGIES.items():
        specs = [
            ExperimentSpec(
                algorithm={"name": algorithm, "b": 12, "alpha": harness.DEFAULT_ALPHA},
                traffic={"name": "facebook-database", "params": workload_kwargs},
                topology={"name": topology, "params": topo_kwargs},
                simulation={"checkpoints": 5},
                seed=None,
            )
            for algorithm in ("rbma", "oblivious")
        ]
        harness.check_specs_picklable(specs)
        results = runner.compare_on_shared_trace(
            specs, n_workers=harness.bench_workers()
        )
        rbma = results["rbma (b: 12)"]
        oblivious = results["oblivious (b: 12)"]
        rows[topology] = (rbma, oblivious, routing_cost_reduction(rbma, oblivious))
    return rows


def test_ablation_topology(benchmark):
    rows = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    lines = ["Ablation A4 — fixed-network topology sensitivity (R-BMA, b = 12)",
             f"{'topology':<12} {'oblivious cost':>16} {'rbma cost':>12} {'reduction':>10}"]
    for topology, (rbma, oblivious, reduction) in rows.items():
        lines.append(
            f"{topology:<12} {oblivious.routing_cost_mean:>16.0f} "
            f"{rbma.routing_cost_mean:>12.0f} {100 * reduction:>9.1f}%"
        )
    harness.write_output("ablation_topology", "\n".join(lines))
