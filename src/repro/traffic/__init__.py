"""Traffic traces and workload generators.

The paper evaluates on proprietary Facebook cluster traces (database,
web service, Hadoop) and on a Microsoft (ProjecToR) rack-to-rack probability
matrix.  Those artifacts are not redistributable, so this subpackage provides
*synthetic equivalents* that reproduce the structural properties the paper
itself highlights — spatial skew and (for the Facebook traces) temporal
burstiness — with explicit, documented parameters.  The module docstrings of
:mod:`~repro.traffic.facebook` and :mod:`~repro.traffic.microsoft` give the
substitution rationale.
"""

from .base import Trace, TraceMetadata
from .matrix import TrafficMatrix
from .stream import DEFAULT_CHUNK_SIZE, TraceStream, fork_generator
from .temporal import TemporalModel, interleave_bursts
from .synthetic import (
    hotspot_stream,
    hotspot_trace,
    permutation_stream,
    permutation_trace,
    uniform_random_stream,
    uniform_random_trace,
    zipf_pair_stream,
    zipf_pair_trace,
)
from .facebook import (
    database_stream,
    database_trace,
    hadoop_trace,
    web_service_stream,
    web_service_trace,
)
from .flows import Flow, flows_to_trace, generate_flows
from .microsoft import microsoft_stream, microsoft_trace, projector_style_matrix
from .stats import TraceStatistics, TraceStatisticsAccumulator, compute_trace_statistics
from .io import (
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
    stream_trace_csv,
    stream_trace_jsonl,
)
from .registry import available_workloads, make_workload, make_workload_stream

__all__ = [
    "Trace",
    "TraceMetadata",
    "TraceStream",
    "DEFAULT_CHUNK_SIZE",
    "fork_generator",
    "TrafficMatrix",
    "TemporalModel",
    "interleave_bursts",
    "uniform_random_trace",
    "uniform_random_stream",
    "zipf_pair_trace",
    "zipf_pair_stream",
    "hotspot_trace",
    "hotspot_stream",
    "permutation_trace",
    "permutation_stream",
    "database_trace",
    "database_stream",
    "web_service_trace",
    "web_service_stream",
    "hadoop_trace",
    "Flow",
    "generate_flows",
    "flows_to_trace",
    "microsoft_trace",
    "microsoft_stream",
    "projector_style_matrix",
    "TraceStatistics",
    "TraceStatisticsAccumulator",
    "compute_trace_statistics",
    "save_trace_csv",
    "load_trace_csv",
    "stream_trace_csv",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "stream_trace_jsonl",
    "available_workloads",
    "make_workload",
    "make_workload_stream",
]
