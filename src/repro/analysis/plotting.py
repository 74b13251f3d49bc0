"""ASCII line charts for result series.

The original figures are matplotlib plots; in a headless / dependency-free
setting we render the same series as Unicode line charts so that the
benchmark output can show the *shape* of each curve
(crossovers, saturation, gaps between algorithms) without any plotting
dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import SimulationError
from ..simulation.results import AggregateResult
from .tables import _series_values

__all__ = ["ascii_line_chart", "plot_results"]

_MARKERS = "ox+*#@%&"


def ascii_line_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 72,
    height: int = 18,
    title: str | None = None,
    y_label: str = "",
) -> str:
    """Render one or more y-series over a shared x-axis as an ASCII chart.

    Parameters
    ----------
    x:
        Shared x values (monotonically increasing).
    series:
        Mapping from label to y values (same length as ``x``).
    width, height:
        Plot area size in characters (excluding axes and legend).
    title, y_label:
        Optional annotations.
    """
    if not series:
        raise SimulationError("no series to plot")
    x_arr = np.asarray(list(x), dtype=float)
    if x_arr.size < 2:
        raise SimulationError("need at least two points to plot")
    for label, values in series.items():
        if len(values) != x_arr.size:
            raise SimulationError(f"series {label!r} length does not match x axis")
    if width < 10 or height < 4:
        raise SimulationError("plot area too small")

    all_y = np.concatenate([np.asarray(list(v), dtype=float) for v in series.values()])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(x_arr.min()), float(x_arr.max())

    grid = [[" "] * width for _ in range(height)]
    for idx, (label, values) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        y_arr = np.asarray(list(values), dtype=float)
        # Interpolate onto the column grid so curves are continuous even with
        # few checkpoints.
        cols = np.arange(width)
        col_x = x_min + (x_max - x_min) * cols / (width - 1)
        col_y = np.interp(col_x, x_arr, y_arr)
        rows = ((col_y - y_min) / (y_max - y_min) * (height - 1)).round().astype(int)
        for c, r in zip(cols, rows):
            grid[height - 1 - int(r)][int(c)] = marker

    lines = []
    if title:
        lines.append(title)
    y_axis_width = 12  # width of the "{value:>10.3g} |" prefix
    for i, row in enumerate(grid):
        y_value = y_max - (y_max - y_min) * i / (height - 1)
        prefix = f"{y_value:>10.3g} |" if i % 3 == 0 or i == height - 1 else " " * 10 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * y_axis_width + "-" * width)
    x_left = f"{x_min:.3g}"
    x_right = f"{x_max:.3g}"
    padding = width - len(x_left) - len(x_right)
    lines.append(" " * y_axis_width + x_left + " " * max(1, padding) + x_right)
    if y_label:
        lines.append(f"y: {y_label}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}" for i, label in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def plot_results(
    results: Mapping[str, AggregateResult],
    metric: str = "routing_cost",
    title: str | None = None,
    width: int = 72,
    height: int = 18,
) -> str:
    """Plot a metric of several aggregated results against the request count."""
    if not results:
        raise SimulationError("no results to plot")
    first = next(iter(results.values()))
    x = first.series.requests
    series = {}
    for label, result in results.items():
        if len(result.series.requests) != len(x) or np.any(result.series.requests != x):
            raise SimulationError("results have mismatching checkpoint grids")
        series[label] = _series_values(result, metric)
    return ascii_line_chart(
        x, series, width=width, height=height, title=title, y_label=metric
    )
