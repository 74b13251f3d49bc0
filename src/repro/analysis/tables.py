"""Plain-text rendering of result series.

The original paper presents its evaluation as matplotlib figures; this
reproduction renders the same series as aligned text tables and CSV-style
rows, which the benchmark harness prints and ``EXPERIMENTS.md`` embeds.  Each
table has one row per checkpoint (number of requests) and one column per
algorithm/parameter combination — exactly the data behind the corresponding
figure panel.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from ..errors import SimulationError
from ..simulation.results import AggregateResult

__all__ = [
    "series_rows",
    "format_series_table",
    "format_comparison_table",
    "routing_cost_reduction",
]


def _series_values(result: AggregateResult, metric: str) -> np.ndarray:
    series = result.series
    if metric == "routing_cost":
        return series.routing_cost
    if metric == "total_cost":
        return series.total_cost
    if metric == "elapsed_seconds":
        return series.elapsed_seconds
    if metric == "matched_fraction":
        return series.matched_fraction
    if metric == "reconfiguration_cost":
        return series.reconfiguration_cost
    raise SimulationError(f"unknown metric {metric!r}")


def series_rows(
    results: Mapping[str, AggregateResult], metric: str = "routing_cost"
) -> List[List[float]]:
    """Rows of ``[requests, value_1, value_2, ...]`` across all results.

    All results must share the same checkpoint grid (they do when produced by
    :meth:`ExperimentRunner.compare_on_shared_trace`).
    """
    if not results:
        raise SimulationError("no results to tabulate")
    items = list(results.items())
    requests = items[0][1].series.requests
    for _label, result in items[1:]:
        if len(result.series.requests) != len(requests) or np.any(
            result.series.requests != requests
        ):
            raise SimulationError("results have mismatching checkpoint grids")
    columns = [_series_values(result, metric) for _label, result in items]
    rows: List[List[float]] = []
    for i, req in enumerate(requests):
        rows.append([float(req)] + [float(col[i]) for col in columns])
    return rows


def format_series_table(
    results: Mapping[str, AggregateResult],
    metric: str = "routing_cost",
    title: str | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render results as an aligned text table (one column per configuration)."""
    rows = series_rows(results, metric)
    headers = ["# requests"] + list(results.keys())
    str_rows = [headers] + [
        [f"{int(row[0])}"] + [float_format.format(v) for v in row[1:]] for row in rows
    ]
    widths = [max(len(r[c]) for r in str_rows) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(str_rows):
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    return "\n".join(lines)


def routing_cost_reduction(
    result: AggregateResult, oblivious: AggregateResult
) -> float:
    """Fractional routing-cost reduction of ``result`` relative to the oblivious baseline.

    This is the number the paper quotes as "routing cost reduction of up to
    35 % with a cache size of 18".
    """
    if oblivious.routing_cost_mean <= 0:
        raise SimulationError("oblivious baseline has non-positive routing cost")
    return 1.0 - result.routing_cost_mean / oblivious.routing_cost_mean


def format_comparison_table(
    results: Mapping[str, AggregateResult],
    oblivious_label: str | None = None,
) -> str:
    """Summary table: final routing cost, reduction vs. oblivious, runtime, matched share."""
    if not results:
        raise SimulationError("no results to tabulate")
    oblivious = results.get(oblivious_label) if oblivious_label else None
    headers = [
        "configuration",
        "routing cost",
        "reduction vs oblivious",
        "runtime [s]",
        "matched share",
    ]
    rows: List[List[str]] = []
    for label, result in results.items():
        if oblivious is not None and label != oblivious_label:
            reduction = f"{100.0 * routing_cost_reduction(result, oblivious):.1f}%"
        else:
            reduction = "-"
        rows.append(
            [
                label,
                f"{result.routing_cost_mean:.4g}",
                reduction,
                f"{result.elapsed_seconds_mean:.3f}",
                f"{100.0 * result.matched_fraction_mean:.1f}%",
            ]
        )
    str_rows = [headers] + rows
    widths = [max(len(r[c]) for r in str_rows) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(str_rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    return "\n".join(lines)
