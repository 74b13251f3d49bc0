"""Markdown report generation.

Turns a collection of aggregated results into a self-contained Markdown
section — summary table, per-checkpoint series, ASCII chart, and the headline
routing-cost reductions — so the benchmark harness (or a user script) can
regenerate a figure panel's record directly from measured data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..errors import SimulationError
from ..simulation.results import AggregateResult
from .plotting import plot_results
from .tables import routing_cost_reduction, series_rows

__all__ = ["markdown_report", "write_markdown_report"]

PathLike = Union[str, Path]


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def markdown_report(
    results: Mapping[str, AggregateResult],
    title: str,
    description: str = "",
    oblivious_label: Optional[str] = None,
    include_chart: bool = True,
    include_series: bool = False,
) -> str:
    """Render a Markdown section for one experiment.

    Parameters
    ----------
    results:
        Aggregated results keyed by configuration label (as produced by
        :meth:`ExperimentRunner.compare_on_shared_trace`).
    title:
        Section heading.
    description:
        Free-form paragraph inserted after the heading.
    oblivious_label:
        If given (or if a label starting with ``"oblivious"`` exists), a
        "reduction vs oblivious" column is included.
    include_chart:
        Append an ASCII chart of the routing-cost series in a code block.
    include_series:
        Append the full per-checkpoint series as a Markdown table.
    """
    if not results:
        raise SimulationError("no results to report")
    if oblivious_label is None:
        oblivious_label = next(
            (label for label in results if label.startswith("oblivious")), None
        )
    oblivious = results.get(oblivious_label) if oblivious_label else None

    first = next(iter(results.values()))
    lines = [f"## {title}", ""]
    if description:
        lines += [description, ""]
    lines += [
        f"Workload `{first.workload}` on `{first.topology}`, "
        f"{first.n_requests:,} requests, α = {first.alpha:g}, "
        f"{first.repetitions} repetition(s).",
        "",
    ]

    headers = ["configuration", "routing cost", "runtime [s]", "matched share"]
    if oblivious is not None:
        headers.insert(2, "reduction vs oblivious")
    rows = []
    for label, result in results.items():
        row = [label, f"{result.routing_cost_mean:,.0f}",
               f"{result.elapsed_seconds_mean:.3f}",
               f"{result.matched_fraction_mean:.1%}"]
        if oblivious is not None:
            reduction = (
                "—" if label == oblivious_label
                else f"{routing_cost_reduction(result, oblivious):.1%}"
            )
            row.insert(2, reduction)
        rows.append(row)
    lines += [_markdown_table(headers, rows), ""]

    if include_series:
        series_headers = ["# requests"] + list(results.keys())
        series_table_rows = [
            [f"{int(row[0]):,}"] + [f"{value:,.0f}" for value in row[1:]]
            for row in series_rows(results, metric="routing_cost")
        ]
        lines += ["Per-checkpoint routing cost:", "",
                  _markdown_table(series_headers, series_table_rows), ""]

    if include_chart:
        lines += ["```", plot_results(results, metric="routing_cost", title=title), "```", ""]
    return "\n".join(lines)


def write_markdown_report(
    results: Mapping[str, AggregateResult],
    path: PathLike,
    title: str,
    **kwargs: object,
) -> Path:
    """Write :func:`markdown_report` output to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(markdown_report(results, title, **kwargs) + "\n")
    return path
