"""Kernel A/B benchmark — reference vs fast backend per figure.

Runs every figure panel on identical specs and seeds, once per
``matching_backend`` (``"reference"`` = original per-request replay over the
set-of-tuples kernel; ``"fast"`` = array-backed kernel plus the batched
engine path) and once sharded over worker processes, asserts the costs are
bit-identical, and records the
wall-clock seconds and speedup ratios in ``BENCH_kernel.json`` at the repo
root.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [fig1 fig2 ...]

Figures default to all four; ``REPRO_BENCH_SCALE`` scales the trace lengths
exactly as for the figure benchmarks.  Can also be collected by pytest, in
which case it benchmarks ``fig1`` only (the acceptance figure).
"""

import sys

import _harness as harness


def _report(figures) -> dict:
    report = harness.kernel_benchmark(figures=tuple(figures))
    width = max(len(f) for f in report)
    print(f"\nkernel A/B (written to {harness.KERNEL_BENCH_PATH}):")
    for figure, row in report.items():
        print(
            f"  {figure:<{width}}  reference {row['reference_seconds']:7.3f}s   "
            f"fast {row['fast_seconds']:7.3f}s ({row['speedup']:5.2f}x)   "
            f"parallel[{row['parallel_workers']}w] {row['parallel_seconds']:7.3f}s "
            f"({row['parallel_speedup']:5.2f}x more, eff {row['parallel_efficiency']:.2f}, "
            f"{row['total_speedup']:5.2f}x total)"
        )
    # The per-algorithm rows (uniform paging, hybrid expert combiner) live
    # in the same JSON payload, next to the figure panels.
    import json

    algorithms = json.loads(harness.KERNEL_BENCH_PATH.read_text())["algorithms"]
    awidth = max(len(a) for a in algorithms)
    print("per-algorithm drive paths (fig1 workload):")
    for name, row in algorithms.items():
        print(
            f"  {name:<{awidth}}  reference {row['reference_seconds']:7.3f}s   "
            f"fast {row['fast_seconds']:7.3f}s ({row['speedup']:5.2f}x)"
        )
    return report


def test_kernel_speedup_fig1(benchmark):
    """Fast backend must at least double fig1 panel throughput."""
    report = benchmark.pedantic(_report, args=(["fig1"],), rounds=1, iterations=1)
    assert report["fig1"]["speedup"] >= 2.0


if __name__ == "__main__":
    figures = sys.argv[1:] or list(harness.FIGURE_SETTINGS)
    unknown = [f for f in figures if f not in harness.FIGURE_SETTINGS]
    if unknown:
        raise SystemExit(f"unknown figures: {unknown} (known: {list(harness.FIGURE_SETTINGS)})")
    harness.preflight()
    _report(figures)
