"""Timing sanity checks: the fast paths must actually be fast.

Two small A/B timings, marked ``perf_smoke`` so they can be selected on
their own (``pytest -m perf_smoke``) while still running in the tier-1
suite:

* a reference-vs-fast kernel comparison on a BMA replay (the kernel-heaviest
  algorithm), which the fast path wins by ~3x on an idle machine;
* HybridBMA's batched replay against the summed batched replays of its two
  experts, which it runs and then combines from their segment logs (about
  1.2x the experts' time; stepping the experts request by request costs
  about 5x).

The thresholds are deliberately loose so scheduler noise cannot flake CI,
while a regression that erases the speedup (e.g. accidentally disabling a
batched path) still fails.

``BENCH_kernel.json`` (written by ``benchmarks/bench_kernel.py``) records the
full figure-panel numbers; this test is only the canary.
"""

import time

import pytest

from repro.config import MatchingConfig
from repro.core import RBMA, HybridBMA, PredictiveBMA
from repro.experiments import ExperimentSpec
from repro.topology import FatTreeTopology
from repro.traffic import zipf_pair_trace

pytestmark = pytest.mark.perf_smoke


def _timed_run(backend: str) -> tuple[float, tuple]:
    spec = ExperimentSpec(
        algorithm={"name": "bma", "b": 4, "alpha": 8.0},
        traffic={"name": "zipf", "params": {"n_nodes": 32, "n_requests": 8000}},
        simulation={"checkpoints": 5, "matching_backend": backend},
        seed=5,
    )
    best = float("inf")
    costs = None
    for _attempt in range(2):  # best-of-2 suppresses one-off scheduler blips
        started = time.perf_counter()
        result = spec.execute()
        best = min(best, time.perf_counter() - started)
        costs = (result.total_routing_cost, result.total_reconfiguration_cost,
                 result.matched_fraction)
    return best, costs


def test_fast_backend_outpaces_reference():
    reference_seconds, reference_costs = _timed_run("reference")
    fast_seconds, fast_costs = _timed_run("fast")
    assert fast_costs == reference_costs  # speed must not buy different results
    assert fast_seconds < reference_seconds * 0.8, (
        f"fast kernel took {fast_seconds:.3f}s vs reference "
        f"{reference_seconds:.3f}s — expected a clear win; the batched replay "
        "path or the fast kernel has regressed"
    )


def _batched_seconds(build, segments):
    """Best-of-3 seconds to replay ``segments`` on fresh instances, and the last one."""
    best = float("inf")
    for _attempt in range(3):
        algo = build()
        started = time.perf_counter()
        for segment in segments:
            algo.serve_batch(segment)
        best = min(best, time.perf_counter() - started)
    return best, algo


def test_hybrid_costs_little_more_than_its_experts():
    topology = FatTreeTopology(n_racks=32)
    trace = zipf_pair_trace(n_nodes=32, n_requests=20_000, exponent=1.2, seed=5)
    segments = [trace[start:start + 2_000] for start in range(0, len(trace), 2_000)]
    config = MatchingConfig(b=4, alpha=12.0)
    params = {"period": 200, "window": 400}
    hybrid_seconds, hybrid = _batched_seconds(
        lambda: HybridBMA(topology, config, rng=5, **params), segments)
    robust_seconds, robust = _batched_seconds(
        lambda: RBMA(topology, config, rng=hybrid._robust_seed), segments)
    predictive_seconds, predictive = _batched_seconds(
        lambda: PredictiveBMA(topology, config, **params), segments)
    assert hybrid.expert_costs == (robust.total_cost, predictive.total_cost)
    experts_seconds = robust_seconds + predictive_seconds
    assert hybrid_seconds < 2 * experts_seconds, (
        f"hybrid took {hybrid_seconds:.3f}s vs {experts_seconds:.3f}s for its two "
        "experts' batched replays — the combiner no longer reads the experts' "
        "segment logs"
    )
