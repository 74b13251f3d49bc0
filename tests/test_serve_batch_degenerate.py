"""Degenerate ``serve_batch`` shapes, pinned on every backend and algorithm.

Batch loops that stop and resume at arbitrary indices have edge cases —
zero-length segments, segments of one request, ``b = 1`` (every insertion
can force an eviction), and runs with a single checkpoint (one segment
spanning the whole trace) — pinned here for *all* backends before any
kernel change can regress them.  So is a failure in the middle of a
segment: every algorithm must stop where request-by-request serving stops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MatchingConfig, SimulationConfig
from repro.core.registry import ALGORITHMS
from repro.errors import SimulationError
from repro.simulation import run_simulation
from repro.topology import LeafSpineTopology
from repro.traffic import zipf_pair_trace

BACKENDS = ("reference", "fast")

ALGORITHM_NAMES = sorted({ALGORITHMS.canonical(name) for name in ALGORITHMS.names()})

N_NODES = 8
N_REQUESTS = 120


@pytest.fixture
def topo():
    return LeafSpineTopology(n_racks=N_NODES)


@pytest.fixture
def trace():
    return zipf_pair_trace(n_nodes=N_NODES, n_requests=N_REQUESTS, seed=9)


def _build(name: str, topo, b: int = 3, seed: int = 5, backend: str = "fast"):
    params = {"solver": "greedy"} if name == "so-bma" else {}
    algo = ALGORITHMS.build(name, topo, MatchingConfig(b=b, alpha=4.0), seed, **params)
    algo.rebind_matching_backend(backend)
    algo.min_segment = 1  # the degenerate shapes reach ``_replay`` however short
    return algo


def _state(algo):
    return (
        algo.total_routing_cost,
        algo.total_reconfiguration_cost,
        algo.requests_served,
        algo.matched_requests,
        sorted(algo.matching.edges),
        sorted(algo.matching.marked_edges),
        algo.matching.additions,
        algo.matching.removals,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_empty_segment_is_a_no_op(algorithm, backend, topo, trace):
    """A zero-length segment must change nothing — before or mid-run."""
    algo = _build(algorithm, topo, backend=backend)
    if algo.requires_full_trace:
        algo.fit(trace)
    # Some algorithms (rotor's schedule, so-bma's fitted solution) install a
    # matching before the first request; the invariant is *unchanged state*,
    # not pristine state.
    initial = _state(algo)
    assert initial[2] == 0  # no requests served yet
    algo.serve_batch(trace[0:0])
    assert _state(algo) == initial
    # Mid-run: serve a prefix, then an empty segment, then verify stability.
    algo.serve_batch(trace[0:40])
    mid = _state(algo)
    algo.serve_batch(trace[40:40])
    assert _state(algo) == mid


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_single_request_segments_match_sequential_serve(algorithm, backend, topo, trace):
    """All-singleton segmentation equals request-by-request serving."""
    short = trace[0:25]
    batched = _build(algorithm, topo, backend=backend)
    if batched.requires_full_trace:
        batched.fit(short)
    for i in range(len(short)):
        batched.serve_batch(short[i:i + 1])

    sequential = _build(algorithm, topo, backend=backend)
    if sequential.requires_full_trace:
        sequential.fit(list(short.requests()))
    for request in short.requests():
        sequential.serve(request)

    assert _state(batched) == _state(sequential), f"{algorithm} on {backend}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_b_equal_one_batched_matches_sequential(algorithm, backend, topo, trace):
    """b=1: every saturation can evict, the harshest pruning regime."""
    batched = _build(algorithm, topo, b=1, backend=backend)
    if batched.requires_full_trace:
        batched.fit(trace)
    batched.serve_batch(trace)

    sequential = _build(algorithm, topo, b=1, backend=backend)
    if sequential.requires_full_trace:
        sequential.fit(list(trace.requests()))
    for request in trace.requests():
        sequential.serve(request)

    assert _state(batched) == _state(sequential), f"{algorithm} on {backend}"


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_single_checkpoint_run_identical_across_backends(algorithm, topo, trace):
    """checkpoints=1 → one segment spanning the whole trace, every backend."""
    totals = {}
    for backend in BACKENDS:
        algo = _build(algorithm, topo, backend="fast")  # engine rebinds
        result = run_simulation(
            algo, trace, SimulationConfig(checkpoints=1, matching_backend=backend)
        )
        assert result.series.requests.tolist() == [N_REQUESTS]
        totals[backend] = (
            result.total_routing_cost,
            result.total_reconfiguration_cost,
            result.matched_fraction,
            result.series.routing_cost.tolist(),
        )
    assert totals["fast"] == totals["reference"], algorithm


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_one_request_trace_identical_across_backends(algorithm, topo):
    """A one-request trace: the series collapses to a single checkpoint."""
    tiny = zipf_pair_trace(n_nodes=N_NODES, n_requests=1, seed=2)
    totals = {}
    for backend in BACKENDS:
        algo = _build(algorithm, topo, backend="fast")
        result = run_simulation(
            algo, tiny, SimulationConfig(checkpoints=10, matching_backend=backend)
        )
        assert len(result.series.requests) == 1
        totals[backend] = (result.total_routing_cost, result.total_reconfiguration_cost)
    assert totals["fast"] == totals["reference"], algorithm


#: Parameters that make every reconfiguring algorithm call ``_check_degree``
#: at least five times in the failure test's trace.
FAILURE_PARAMS = {
    "rotor": {"period": 40},
    "predictive": {"period": 50},
    "hybrid": {"period": 50},
    "so-bma": {"solver": "greedy"},
}


def _fail_on_check(algo, k: int):
    """Make this instance's ``_check_degree`` raise on its ``k``-th call."""
    calls = [0]
    check = algo._check_degree

    def check_or_fail(node):
        calls[0] += 1
        if calls[0] == k:
            raise SimulationError(f"{algo.name}: injected failure at node {node}")
        check(node)

    algo._check_degree = check_or_fail
    return algo


def _error_of(serve_all) -> str | None:
    try:
        serve_all()
    except SimulationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("segment", [7, 150, None])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_failure_mid_segment_matches_sequential_serve(algorithm, k, segment, topo):
    """A request whose degree check fails is not served, on either path.

    The failure is injected at the ``k``-th ``_check_degree`` call of the
    algorithm itself (for hybrid, the combiner's, not an expert's);
    ``segment=None`` serves the whole trace as one segment.
    """
    trace = zipf_pair_trace(n_nodes=N_NODES, n_requests=1200, seed=9)
    params = FAILURE_PARAMS.get(algorithm, {})

    def build():
        algo = ALGORITHMS.build(algorithm, topo, MatchingConfig(b=3, alpha=4.0), 5, **params)
        algo.min_segment = 1  # segments of 7 through ``_replay`` too
        if algo.requires_full_trace:
            algo.fit(trace)
        return _fail_on_check(algo, k)

    def policy_state(algo):
        return [getattr(algo, name, None) for name in ("_counters", "_demand", "_switches")]

    sequential = build()
    seq_error = _error_of(lambda: [sequential.serve(r) for r in trace.requests()])
    batched = build()
    size = segment or len(trace)
    batch_error = _error_of(
        lambda: [batched.serve_batch(trace[i:i + size]) for i in range(0, len(trace), size)]
    )
    assert batch_error == seq_error
    if algorithm not in ("oblivious", "so-bma"):  # these never reconfigure
        assert seq_error is not None and sequential.requests_served < len(trace)
    assert _state(batched) == _state(sequential)
    assert policy_state(batched) == policy_state(sequential)
