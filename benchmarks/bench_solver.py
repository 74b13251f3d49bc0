"""Solver A/B benchmark — nx vs array blossom tier on the SO-BMA solve.

Times the static maximum-weight b-matching solve behind SO-BMA for every
figure panel's ``b`` grid on the panel's aggregate demand, once per solver
backend (``"nx"`` = the reference NetworkX blossom path, no memoisation;
``"array"`` = the flat-array Galil kernel, measured both bare and with the
demand-fingerprint memo + prefix-shared b-sweeps), asserts that the
backends produce identical matchings and bit-identical SO-BMA figure costs
*before* recording any timing, and writes the seconds and speedup ratios to
``BENCH_solver.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_solver.py [fig1 fig2 ...]

Figures default to all four; ``REPRO_BENCH_SCALE`` scales the trace lengths
exactly as for the figure benchmarks.  Can also be collected by pytest, in
which case it benchmarks ``fig4`` only (the acceptance figure: the paper's
Microsoft panel, where SO-BMA wins and its blossom solve dominates).
"""

import sys

import _harness as harness


def _report(figures) -> dict:
    report = harness.solver_benchmark(figures=tuple(figures))
    width = max(len(f) for f in report)
    print(f"\nsolver A/B (written to {harness.SOLVER_BENCH_PATH}):")
    for figure, row in report.items():
        print(
            f"  {figure:<{width}}  b={tuple(row['b_values'])}  "
            f"nx {row['nx_seconds']:7.3f}s   "
            f"array-kernel {row['array_kernel_seconds']:7.3f}s "
            f"({row['kernel_speedup']:5.2f}x)   "
            f"array+memo+prefix {row['array_seconds']:7.3f}s "
            f"({row['speedup']:5.2f}x, "
            f"{row['blossom_rounds_nx']}->{row['blossom_rounds_array']} rounds)"
        )
    return report


def test_solver_speedup_fig4(benchmark):
    """The array tier must at least triple fig4's SO-BMA solve throughput."""
    report = benchmark.pedantic(_report, args=(["fig4"],), rounds=1, iterations=1)
    assert report["fig4"]["speedup"] >= 3.0


if __name__ == "__main__":
    figures = sys.argv[1:] or list(harness.FIGURE_SETTINGS)
    unknown = [f for f in figures if f not in harness.FIGURE_SETTINGS]
    if unknown:
        raise SystemExit(f"unknown figures: {unknown} (known: {list(harness.FIGURE_SETTINGS)})")
    harness.preflight()
    _report(figures)
