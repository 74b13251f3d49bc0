"""Analysis tools: offline optimum, competitive ratios, adversaries, reports.

These modules connect the empirical side of the reproduction to the paper's
theory: a dynamic-programming offline optimum for tiny instances, an
empirical competitive-ratio harness, adversarial (lower-bound style) request
sequences, and plain-text rendering of the figure series for the benchmark
reports.
"""

from .offline_opt import optimal_dynamic_matching_cost
from .competitive import CompetitiveReport, empirical_competitive_ratio
from .adversary import adversarial_paging_trace, round_robin_adversary_trace
from .plotting import ascii_line_chart, plot_results
from .report import markdown_report, write_markdown_report
from .tables import (
    format_comparison_table,
    format_series_table,
    routing_cost_reduction,
    series_rows,
)

__all__ = [
    "optimal_dynamic_matching_cost",
    "empirical_competitive_ratio",
    "CompetitiveReport",
    "adversarial_paging_trace",
    "round_robin_adversary_trace",
    "ascii_line_chart",
    "plot_results",
    "markdown_report",
    "write_markdown_report",
    "format_series_table",
    "format_comparison_table",
    "series_rows",
    "routing_cost_reduction",
]
