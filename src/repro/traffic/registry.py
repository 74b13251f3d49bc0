"""Name-based registry of workload generators.

The benchmark harness and the sweep runner describe workloads by name
(``"facebook-database"``, ``"microsoft"``, ...), so a single declarative
configuration can drive all of the paper's figures.  The registry is an
instance of the generic :class:`repro.experiments.Registry` whose entries
are stream factories: :func:`make_workload_stream` builds the lazy
:class:`~repro.traffic.stream.TraceStream`, and :func:`make_workload` is
that stream materialized.
"""

from __future__ import annotations

from typing import Any, Callable

from ..experiments.registry import Registry
from .base import Trace
from .facebook import database_stream, hadoop_stream, web_service_stream
from .microsoft import microsoft_stream
from .stream import TraceStream
from .synthetic import (
    hotspot_stream,
    permutation_stream,
    uniform_random_stream,
    zipf_pair_stream,
)

__all__ = [
    "WORKLOADS",
    "available_workloads",
    "make_workload",
    "make_workload_stream",
    "register_workload",
]

WorkloadFactory = Callable[..., TraceStream]

#: The workload registry — the single source of truth for workload names.
WORKLOADS: Registry[TraceStream] = Registry("workload")


def register_workload(name: str, factory: WorkloadFactory) -> None:
    """Register a workload stream factory under ``name`` (lower-cased).

    ``factory(chunk_size=None, **params)`` must return a
    :class:`~repro.traffic.stream.TraceStream` whose requests do not depend
    on ``chunk_size`` (``None`` means the default), so that
    :func:`make_workload` and :func:`make_workload_stream` agree.
    """
    WORKLOADS.register(name, factory)


def available_workloads() -> list[str]:
    """Names of the registered workloads, sorted."""
    return WORKLOADS.names()


def make_workload(name: str, **kwargs: Any) -> Trace:
    """Generate a workload by registered name, materialized.

    Examples
    --------
    >>> trace = make_workload("uniform", n_nodes=8, n_requests=100, seed=0)
    >>> len(trace)
    100
    """
    return WORKLOADS.build(name, **kwargs).materialize()


def make_workload_stream(
    name: str, chunk_size: Any = None, **kwargs: Any
) -> TraceStream:
    """Build a workload as a lazy :class:`~repro.traffic.stream.TraceStream`.

    The segments concatenate to :func:`make_workload` with the same
    arguments, for any chunk size.
    """
    return WORKLOADS.build(name, chunk_size=chunk_size, **kwargs)


WORKLOADS.register("uniform", uniform_random_stream)
WORKLOADS.register("zipf", zipf_pair_stream)
WORKLOADS.register("hotspot", hotspot_stream)
WORKLOADS.register("permutation", permutation_stream)
WORKLOADS.register("facebook-database", database_stream)
WORKLOADS.register("facebook-web", web_service_stream)
WORKLOADS.register("facebook-hadoop", hadoop_stream)
WORKLOADS.register("microsoft", microsoft_stream)
