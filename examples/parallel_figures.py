#!/usr/bin/env python
"""Sharding a figure panel across worker processes, with proof of bit-identity.

Every figure in the paper is a grid of independent (algorithm × degree-bound
× repetition) runs; the simulation *within* a run stays sequential (as in the
paper), but the grid itself shards across a process pool.  This script builds
a small Figure-1-style panel, runs it sequentially and sharded over workers,
verifies the two produce *identical* cost series (workers rebuild the shared
trace deterministically from their specs — see
:mod:`repro.exec.scheduler` for the sharding model), and reports the
wall-clock for both along with the parallel efficiency.

It also demonstrates ``checkpoint_positions``: the panel records its series
at log-spaced request counts (via
:func:`repro.simulation.log_spaced_checkpoints`), the x-axis used by the
log-scale figures in related work.

Run with::

    python examples/parallel_figures.py [n_workers]
"""

import sys
import time

import numpy as np

from repro import ExperimentSpec
from repro.simulation import ExperimentRunner, log_spaced_checkpoints
from repro.exec import default_worker_count

N_REQUESTS = 12_000
REPETITIONS = 3


def panel_specs() -> list[ExperimentSpec]:
    """An abridged Figure-1 panel: R-BMA and BMA over three degree bounds."""
    base = ExperimentSpec(
        algorithm={"name": "rbma", "b": 6, "alpha": 15},
        traffic={"name": "facebook-database",
                 "params": {"n_nodes": 50, "n_requests": N_REQUESTS}},
        simulation={"checkpoint_positions": log_spaced_checkpoints(N_REQUESTS, 8)},
    )
    return base.expand({"algorithm.name": ["rbma", "bma"],
                        "algorithm.b": [6, 12, 18]})


def run_panel(n_workers: int):
    runner = ExperimentRunner(repetitions=REPETITIONS, base_seed=2023)
    started = time.perf_counter()
    results = runner.compare_on_shared_trace(panel_specs(), n_workers=n_workers)
    return results, time.perf_counter() - started


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else default_worker_count()

    sequential, seq_seconds = run_panel(n_workers=1)
    sharded, par_seconds = run_panel(n_workers=workers)

    for label in sequential:
        assert np.array_equal(
            sequential[label].series.routing_cost, sharded[label].series.routing_cost
        ), f"sharded run diverged for {label}"
    print(f"{len(sequential)} configurations x {REPETITIONS} repetitions, "
          f"log-spaced checkpoints {log_spaced_checkpoints(N_REQUESTS, 8)}")
    print("sharded costs are bit-identical to sequential ones\n")

    speedup = seq_seconds / par_seconds
    print(f"sequential      : {seq_seconds:6.2f}s")
    print(f"sharded ({workers:2d} w)  : {par_seconds:6.2f}s   "
          f"speedup {speedup:4.2f}x   efficiency {speedup / max(1, workers):4.2f}")
    if workers == 1:
        print("(single worker: pool skipped; run on a multi-core machine or pass "
              "an explicit worker count to see the fan-out)")

    final = {label: agg.routing_cost_mean for label, agg in sequential.items()}
    width = max(len(label) for label in final)
    print("\nfinal routing cost (mean over repetitions):")
    for label, cost in sorted(final.items(), key=lambda kv: kv[1]):
        print(f"  {label:<{width}}  {cost:12,.0f}")


if __name__ == "__main__":
    main()
