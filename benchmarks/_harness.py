"""Shared machinery for the figure-reproduction benchmarks.

Every benchmark module regenerates one figure of the paper's evaluation
section (routing-cost panel, execution-time panel, best-of panel) as
plain-text tables printed to stdout and written under ``benchmarks/output/``.

Because the original traces are proprietary, the workloads are the synthetic
equivalents from :mod:`repro.traffic` (its docstring says why), and the request
counts are scaled down by ``REPRO_BENCH_SCALE`` (default 0.05 of the paper's
x-axes) so the whole suite runs in minutes on a laptop.  Set
``REPRO_BENCH_SCALE=1.0`` to run at the paper's full scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.analysis import format_comparison_table, format_series_table
from repro.experiments import ExperimentSpec
from repro.simulation import AggregateResult, ExperimentRunner
from repro.exec import default_worker_count
from repro.obs import snapshot
from repro.store import default_store

__all__ = [
    "bench_scale",
    "bench_repetitions",
    "bench_workers",
    "scaled_requests",
    "preflight",
    "check_specs_picklable",
    "figure_specs",
    "run_figure_panel",
    "kernel_benchmark",
    "solver_benchmark",
    "routing_cost_table",
    "execution_time_table",
    "best_of_table",
    "summary_table",
    "write_output",
]

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Where :func:`kernel_benchmark` records reference-vs-fast wall-clock times.
KERNEL_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: Where :func:`solver_benchmark` records nx-vs-array SO-BMA solver times.
SOLVER_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_solver.json"

#: Paper figure parameters: (workload, racks, full request count, b values).
FIGURE_SETTINGS = {
    "fig1": ("facebook-database", 100, 350_000, (6, 12, 18)),
    "fig2": ("facebook-web", 100, 400_000, (6, 12, 18)),
    "fig3": ("facebook-hadoop", 100, 185_000, (6, 12, 18)),
    "fig4": ("microsoft", 50, 1_750_000, (3, 6, 9)),
}

#: Per-algorithm rows timed by :func:`kernel_benchmark` on the fig1 workload:
#: the randomized/expert algorithms whose batched drive paths (steady-pair
#: paging scan, hybrid expert-stepping scan) are not exercised by the
#: rbma/bma figure panels.  Values are the algorithm's extra spec params.
ALGORITHM_BENCH_SETTINGS: Dict[str, Dict[str, object]] = {
    "uniform": {},
    "hybrid": {"period": 200, "window": 400},
}

#: Reconfiguration cost used throughout the benchmarks.  The paper does not
#: fix a value but requires α ≥ ℓ_max (= 4 on a fat tree); 15 keeps that
#: property while still letting the online algorithms amortise
#: reconfigurations within the scaled-down trace lengths (the α-sweep
#: ablation, ``bench_ablation_alpha.py``, shows the effect of larger α).
DEFAULT_ALPHA = 15.0


def bench_scale() -> float:
    """Fraction of the paper's request counts to simulate."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))


def bench_repetitions() -> int:
    """Number of repetitions per configuration (paper: 5; default here: 1)."""
    return int(os.environ.get("REPRO_BENCH_REPETITIONS", "1"))


def bench_workers() -> int:
    """Worker processes for sharding panels/ablations (``REPRO_BENCH_WORKERS``).

    Defaults to CPU count minus one; figure panels and ablations run their
    (algorithm × b × repetition) grids across this many processes with
    bit-identical results (the runs are independent; each worker rebuilds
    its trace deterministically from the spec).
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env is not None:
        return max(1, int(env))
    return default_worker_count()


def scaled_requests(full_count: int) -> int:
    """Scale a paper request count, keeping at least a usable minimum."""
    return max(2_000, int(full_count * bench_scale()))


def _store_provenance() -> Dict[str, object]:
    """Run-store provenance recorded into every ``BENCH_*.json`` payload.

    ``store_active`` says whether a default store was configured while the
    benchmark process ran; ``store_hits``/``store_misses``/``store_writes``
    are the process totals of the ``store.`` counts on :mod:`repro.obs`,
    so a reader can tell how much of the surrounding pipeline (figure
    panels, preflight) was served from cache.
    The timing arms themselves always run with ``store=False``, so hits
    never contaminate the recorded wall-clock numbers.
    """
    counts = snapshot("store.")
    return {
        "store_active": default_store() is not None,
        **{f"store_{k}": counts.get(f"store.{k}", 0) for k in ("hits", "misses", "writes")},
    }


_PREFLIGHT_RAN = False


def preflight() -> None:
    """Run the fast ``pytest -m smoke`` subset once before long benchmark runs.

    A multi-hour sweep should fail in seconds, not hours, when the library is
    broken.  Runs at most once per process; disable with
    ``REPRO_BENCH_PREFLIGHT=0``.
    """
    global _PREFLIGHT_RAN
    if _PREFLIGHT_RAN or os.environ.get("REPRO_BENCH_PREFLIGHT", "1") == "0":
        return
    _PREFLIGHT_RAN = True
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "smoke", "-q", "--no-header", "-p", "no:cacheprovider",
         str(root / "tests")],
        cwd=root,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"smoke-test preflight failed (exit {proc.returncode}); aborting benchmarks "
            "(set REPRO_BENCH_PREFLIGHT=0 to skip)"
        )
    for figure in FIGURE_SETTINGS:
        for backend in (None, "reference", "fast"):
            check_specs_picklable(figure_specs(figure, matching_backend=backend))


def check_specs_picklable(specs: Sequence[object]) -> None:
    """Assert every spec round-trips through pickle before a sharded run.

    Sharded execution ships specs to worker processes; a spec that pickles
    into something different (or not at all) would silently run a different
    experiment, so the preflight fails loudly instead — even on hosts where
    the pool (and its own dispatch-time check) is skipped.  Figure panels
    are checked by :func:`preflight`; the ablation sweeps call this on
    their own spec grids.
    """
    from repro.exec.scheduler import _check_picklable

    _check_picklable(list(specs))


def figure_specs(figure: str, matching_backend: Optional[str] = None) -> list[ExperimentSpec]:
    """The experiment specs behind one figure panel.

    ``matching_backend`` selects the b-matching kernel (``"fast"`` is the
    library default; ``"reference"`` forces the original per-request kernel,
    used by :func:`kernel_benchmark` for A/B timing).
    """
    workload, n_racks, full_requests, b_values = FIGURE_SETTINGS[figure]
    n_requests = scaled_requests(full_requests)

    simulation: Dict[str, object] = {"checkpoints": 10}
    if matching_backend is not None:
        simulation["matching_backend"] = matching_backend
    base = ExperimentSpec(
        algorithm={"name": "rbma", "b": b_values[0], "alpha": DEFAULT_ALPHA},
        traffic={"name": workload,
                 "params": {"n_nodes": n_racks, "n_requests": n_requests}},
        simulation=simulation,
    )
    specs = base.expand({"algorithm.name": ["rbma", "bma"],
                         "algorithm.b": list(b_values)})
    # Oblivious baseline (b is irrelevant) and SO-BMA at the largest b for the
    # best-of panel, as in the paper's (c) sub-figures.
    specs.extend(
        base.expand({"algorithm.name": ["oblivious"]})
        + base.expand({"algorithm.name": ["so-bma"],
                       "algorithm.b": [b_values[-1]],
                       "algorithm.params": [{"solver": "blossom"}]})
    )
    return specs


@lru_cache(maxsize=None)
def run_figure_panel(figure: str) -> Dict[str, AggregateResult]:
    """Run all configurations behind one figure and cache the results.

    Returns a mapping from configuration label (``"rbma (b: 12)"``,
    ``"oblivious (b: ...)"``, ``"so-bma (b: ...)"``) to aggregated results,
    all replayed on the same generated workload per repetition.  The
    (algorithm × b × repetition) grid is sharded over
    :func:`bench_workers` processes; results are bit-identical to a
    sequential run, so the cache key stays the figure alone.

    With ``REPRO_RUN_STORE`` set, panels are *incremental*: every (spec,
    seed) cell already in the store is served from disk (bit-identical to a
    cold run) and only new or changed cells simulate — regenerating all
    figures after touching one algorithm recomputes just that algorithm's
    cells.  The timing benchmarks below are exempt: they force cold runs.
    """
    preflight()
    runner = ExperimentRunner(repetitions=bench_repetitions(), base_seed=2023)
    return runner.compare_on_shared_trace(
        figure_specs(figure), n_workers=bench_workers()
    )


def _algorithm_spec(name: str, matching_backend: Optional[str] = None) -> ExperimentSpec:
    """One seeded spec for a per-algorithm kernel row (fig1 workload)."""
    workload, n_racks, full_requests, b_values = FIGURE_SETTINGS["fig1"]
    simulation: Dict[str, object] = {"checkpoints": 10}
    if matching_backend is not None:
        simulation["matching_backend"] = matching_backend
    return ExperimentSpec(
        algorithm={"name": name, "b": b_values[1], "alpha": DEFAULT_ALPHA,
                   "params": dict(ALGORITHM_BENCH_SETTINGS[name])},
        traffic={"name": workload,
                 "params": {"n_nodes": n_racks,
                            "n_requests": scaled_requests(full_requests)}},
        simulation=simulation,
        seed=2023,
    )


def _algorithm_rows(rounds: int) -> Dict[str, Dict[str, object]]:
    """Per-algorithm reference/fast timings with bit-identity gates.

    Same honest-recording contract as the figure arms: every arm must
    reproduce the reference arm's totals exactly before any timing is
    written (counter-RNG draws are identical across backends by the rng
    tier's differential tests, so totals agree bit-for-bit).
    """
    from repro.simulation.runner import execute_experiment_spec

    rows: Dict[str, Dict[str, object]] = {}
    for name in ALGORITHM_BENCH_SETTINGS:
        timings: Dict[str, float] = {}
        totals: Dict[str, tuple] = {}
        arms = [("reference", "reference"), ("fast", "fast")]
        for _round in range(max(1, rounds)):
            for arm, backend in arms:
                spec = _algorithm_spec(name, matching_backend=backend)
                started = time.perf_counter()
                result = execute_experiment_spec(spec, store=False)
                elapsed = time.perf_counter() - started
                timings[arm] = min(elapsed, timings.get(arm, elapsed))
                totals[arm] = (
                    result.total_routing_cost,
                    result.total_reconfiguration_cost,
                    result.matched_fraction,
                    tuple(result.series.routing_cost.tolist()),
                )
        for arm, _backend in arms[1:]:
            if totals[arm] != totals["reference"]:
                raise RuntimeError(
                    f"{name}: {arm} arm disagrees with the reference kernel on "
                    "costs; run tests/test_rng_counter.py and the differential "
                    "test suite"
                )
        rows[name] = {
            "reference_seconds": round(timings["reference"], 4),
            "fast_seconds": round(timings["fast"], 4),
            "speedup": round(timings["reference"] / timings["fast"], 3),
        }
    return rows


def kernel_benchmark(
    figures: Sequence[str] = ("fig1", "fig2", "fig3", "fig4"),
    output_path: Optional[Path] = None,
    rounds: int = 3,
    n_workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Time each figure panel: reference vs fast vs sharded fast.

    Every panel is run on ``matching_backend="reference"`` (the original
    per-request replay over the set-of-tuples kernel), on
    ``matching_backend="fast"`` (the array-backed kernel plus the batched
    engine path), and on the fast backend sharded over ``n_workers``
    processes (default
    :func:`bench_workers`), with identical specs and seeds; arms are
    interleaved for ``rounds`` rounds and the per-arm minimum wall-clock is
    recorded (best-of-N suppresses scheduler noise), then written with the
    speedup ratios to ``BENCH_kernel.json`` at the repo root.  All arms
    produce bit-identical costs (asserted here), so the timing deltas are
    attributable to the kernel, the replay path, and the sharding alone.
    ``speedup`` is against the reference arm; ``parallel_efficiency`` is
    the parallel speedup over the sequential fast arm divided by the worker
    count (1.0 = perfect scaling; on a single-CPU host the pool is skipped
    and the column records the degenerate 1-worker run).
    """
    workers = bench_workers() if n_workers is None else max(1, n_workers)
    report: Dict[str, Dict[str, float]] = {}
    for figure in figures:
        # Prewarm the shared spec-layer inputs (the topology cache) so all
        # arms are measured against identical, already-built
        # infrastructure and the timing delta isolates kernel + replay path.
        warm_spec = figure_specs(figure)[0].with_seed(2023)
        warm_spec.build_topology(warm_spec.build_trace())
        timings: Dict[str, float] = {}
        totals: Dict[str, Dict[str, float]] = {}
        arms = [("reference", "reference", 1), ("fast", "fast", 1),
                ("parallel", "fast", workers)]
        for _round in range(max(1, rounds)):
            for arm, backend, arm_workers in arms:
                # store=False: timing arms must measure computation, never
                # warm-store reads — an env-configured store would otherwise
                # poison the A/B comparison after the first round.
                runner = ExperimentRunner(repetitions=bench_repetitions(),
                                          base_seed=2023, store=False)
                specs = figure_specs(figure, matching_backend=backend)
                started = time.perf_counter()
                results = runner.compare_on_shared_trace(specs, n_workers=arm_workers)
                elapsed = time.perf_counter() - started
                timings[arm] = min(elapsed, timings.get(arm, elapsed))
                totals[arm] = {
                    label: agg.routing_cost_mean for label, agg in results.items()
                }
        for arm, _backend, _workers in arms[1:]:
            if totals[arm] != totals["reference"]:
                raise RuntimeError(
                    f"{figure}: {arm} arm disagrees with the reference kernel on "
                    "routing costs; run the differential test suite"
                )
        parallel_speedup = timings["fast"] / timings["parallel"]
        row: Dict[str, float] = {
            "reference_seconds": round(timings["reference"], 4),
            "fast_seconds": round(timings["fast"], 4),
            "speedup": round(timings["reference"] / timings["fast"], 3),
            "parallel_seconds": round(timings["parallel"], 4),
            "parallel_workers": workers,
            "parallel_speedup": round(parallel_speedup, 3),
            "parallel_efficiency": round(parallel_speedup / workers, 3),
            "total_speedup": round(timings["reference"] / timings["parallel"], 3),
        }
        report[figure] = row

    payload = {
        "description": "Wall-clock seconds per figure panel: reference kernel "
        "(per-request replay over BMatching) vs fast kernel (FastBMatching + "
        "batched engine path) vs the fast kernel sharded over worker "
        "processes, identical specs/seeds and bit-identical costs. "
        "parallel_efficiency = "
        "(fast_seconds / parallel_seconds) / parallel_workers. The "
        "'algorithms' section times the randomized/expert algorithms "
        "(uniform paging, hybrid expert combiner) per backend on the fig1 "
        "workload — the rows whose batched drive paths the figure panels "
        "do not reach.",
        "scale": bench_scale(),
        "repetitions": bench_repetitions(),
        "workers": workers,
        "store": _store_provenance(),
        "figures": report,
        "algorithms": _algorithm_rows(rounds),
    }
    path = KERNEL_BENCH_PATH if output_path is None else Path(output_path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return report


def solver_benchmark(
    figures: Sequence[str] = ("fig1", "fig2", "fig3", "fig4"),
    output_path: Optional[Path] = None,
    rounds: int = 3,
) -> Dict[str, Dict[str, object]]:
    """Time the SO-BMA static blossom solve per figure: nx vs array tier.

    For every figure panel the aggregate demand of the panel's shared trace
    is computed once, and three arms then solve the panel's full ``b`` grid
    (the workload a cache-size ablation or a ``b``-sweep panel pays):

    ``nx``
        Today's reference path — one independent iterated solve per ``b``
        with the NetworkX kernel, the memo cleared before each solve, i.e.
        ``sum(b_values)`` blossom rounds.
    ``array_kernel``
        The same independent solves on the flat-array kernel (memo still
        cleared before each solve), isolating the pure kernel speedup.
    ``array``
        The new default tier: array kernel plus demand-fingerprint memo and
        prefix-shared rounds, started cold — the whole grid costs
        ``max(b_values)`` blossom rounds.

    Honest-recording contract (same as :func:`kernel_benchmark`): before any
    timing, the benchmark asserts that nx and array return *identical*
    matchings for every ``b`` in the grid and that a full SO-BMA figure run
    (via the simulation engine) produces bit-identical costs and checkpoint
    series under ``solver_backend="nx"`` and ``"array"``.  Arms are
    interleaved for ``rounds`` rounds and the per-arm minimum is recorded,
    then written to ``BENCH_solver.json`` at the repo root.
    """
    import numpy as _np
    from dataclasses import replace as _replace

    from repro.experiments.specs import spawn_seeds
    from repro.matching import iterated_max_weight_b_matching, solver_cache_clear
    from repro.simulation.runner import execute_experiment_spec

    report: Dict[str, Dict[str, object]] = {}

    def _cold_solve(b: int, backend: str):
        # An independent solve: clearing the memo first makes it pay for
        # all b blossom rounds instead of extending a cached sweep state.
        solver_cache_clear()
        return iterated_max_weight_b_matching(weights, n, b, backend=backend)

    try:
        for figure in figures:
            _workload, _n_racks, _full_requests, b_values = FIGURE_SETTINGS[figure]
            seed = spawn_seeds(2023, 1)[0]
            so_spec = next(
                s for s in figure_specs(figure) if s.algorithm.name == "so-bma"
            ).with_seed(seed)
            trace = so_spec.build_trace()
            topology = so_spec.build_topology(trace)
            algo = so_spec.build_algorithm(topology)
            weights = algo.aggregate_demand(trace)
            n = topology.n_racks

            # --- bit-identity gate: no timing is recorded unless the array
            # tier reproduces the nx solver exactly, per b and end-to-end.
            for b in b_values:
                chosen_nx = _cold_solve(b, "nx")
                chosen_array = _cold_solve(b, "array")
                if chosen_nx != chosen_array:
                    raise RuntimeError(
                        f"{figure}: array solver disagrees with nx at b={b}; "
                        "run tests/test_solver_backends.py"
                    )
            solver_cache_clear()
            run_costs: Dict[str, float] = {}
            baseline = None
            for backend in ("nx", "array"):
                run_spec = _replace(
                    so_spec, algorithm=_replace(so_spec.algorithm, solver_backend=backend)
                )
                result = execute_experiment_spec(run_spec, trace=trace)
                signature = (
                    result.total_routing_cost,
                    result.total_reconfiguration_cost,
                    result.matched_fraction,
                    tuple(result.series.routing_cost.tolist()),
                )
                run_costs[backend] = result.total_routing_cost
                if baseline is None:
                    baseline = signature
                elif signature != baseline:
                    raise RuntimeError(
                        f"{figure}: SO-BMA run costs differ between solver "
                        "backends; refusing to record timings"
                    )

            # --- timing arms, interleaved, best-of-N.
            timings: Dict[str, float] = {}
            for _round in range(max(1, rounds)):
                for arm, backend in (("nx", "nx"), ("array_kernel", "array")):
                    started = time.perf_counter()
                    for b in b_values:
                        _cold_solve(b, backend)
                    elapsed = time.perf_counter() - started
                    timings[arm] = min(elapsed, timings.get(arm, elapsed))
                solver_cache_clear()  # the combined arm is measured cold
                started = time.perf_counter()
                for b in b_values:
                    iterated_max_weight_b_matching(weights, n, b, backend="array")
                elapsed = time.perf_counter() - started
                timings["array"] = min(elapsed, timings.get("array", elapsed))

            report[figure] = {
                "b_values": list(b_values),
                "n_racks": n,
                "demand_pairs": len(weights),
                "nx_seconds": round(timings["nx"], 4),
                "array_kernel_seconds": round(timings["array_kernel"], 4),
                "array_seconds": round(timings["array"], 4),
                "kernel_speedup": round(timings["nx"] / timings["array_kernel"], 3),
                "speedup": round(timings["nx"] / timings["array"], 3),
                "blossom_rounds_nx": int(_np.sum(b_values)),
                "blossom_rounds_array": int(max(b_values)),
                "so_bma_routing_cost": run_costs["array"],
            }
    finally:
        solver_cache_clear()

    payload = {
        "description": "Wall-clock seconds for the SO-BMA static blossom "
        "solve per figure panel, over the panel's full b grid on its "
        "aggregate demand: nx_seconds = the reference NetworkX path, one "
        "independent iterated solve per b, no memoisation (sum(b_values) "
        "blossom rounds); array_kernel_seconds = the same independent "
        "solves on the flat-array Galil kernel (pure kernel win); "
        "array_seconds = the default tier with demand-fingerprint "
        "memoisation and prefix-shared rounds, started cold (max(b_values) "
        "rounds).  speedup = nx_seconds / array_seconds; kernel_speedup = "
        "nx_seconds / array_kernel_seconds.  Timings are recorded only "
        "after asserting that both backends return identical matchings for "
        "every b and bit-identical SO-BMA figure costs end-to-end "
        "(so_bma_routing_cost).",
        "scale": bench_scale(),
        "rounds": rounds,
        "store": _store_provenance(),
        "figures": report,
    }
    path = SOLVER_BENCH_PATH if output_path is None else Path(output_path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return report


def _select(results: Mapping[str, AggregateResult], prefixes: Sequence[str]) -> Dict[str, AggregateResult]:
    return {
        label: result
        for label, result in results.items()
        if any(label.startswith(prefix) for prefix in prefixes)
    }


def routing_cost_table(results: Mapping[str, AggregateResult], title: str) -> str:
    """Panel (a): cumulative routing cost vs. number of requests."""
    selected = _select(results, ("rbma", "bma", "oblivious"))
    return format_series_table(selected, metric="routing_cost", title=title)


def execution_time_table(results: Mapping[str, AggregateResult], title: str) -> str:
    """Panel (b): cumulative execution time vs. number of requests."""
    selected = _select(results, ("rbma", "bma"))
    return format_series_table(selected, metric="elapsed_seconds", title=title,
                               float_format="{:.3f}")


def best_of_table(results: Mapping[str, AggregateResult], title: str) -> str:
    """Panel (c): R-BMA vs BMA vs SO-BMA at the largest cache size."""
    largest_b = max(result.b for label, result in results.items() if label.startswith("rbma"))
    selected = {
        label: result
        for label, result in results.items()
        if result.b == largest_b and label.split(" ")[0] in ("rbma", "bma", "so-bma")
    }
    return format_series_table(selected, metric="routing_cost", title=title)


def summary_table(results: Mapping[str, AggregateResult], title: str) -> str:
    """Final-cost summary with reduction vs. the oblivious baseline."""
    oblivious_label = next(label for label in results if label.startswith("oblivious"))
    return title + "\n" + format_comparison_table(results, oblivious_label=oblivious_label)


def write_output(name: str, text: str) -> None:
    """Print a table and persist it under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
