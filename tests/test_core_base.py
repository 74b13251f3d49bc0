"""Tests for the OnlineBMatchingAlgorithm base-class cost accounting."""

import pytest

from repro.config import MatchingConfig
from repro.core import ObliviousRouting, RBMA
from repro.core.registry import ALGORITHMS
from repro.errors import SimulationError
from repro.topology import FatTreeTopology
from repro.traffic import zipf_pair_trace
from repro.types import Request


class TestCostAccounting:
    def test_unmatched_request_costs_path_length(self, small_leafspine):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        outcome = algo.serve(Request(0, 5))
        assert outcome.routing_cost == 2.0
        assert outcome.reconfiguration_cost == 0.0
        assert not outcome.served_by_matching

    def test_matched_request_costs_one(self, small_leafspine):
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        # alpha=2, l=2 -> k_e = 1, so the first request already installs the edge.
        algo.serve(Request(0, 5))
        outcome = algo.serve(Request(0, 5))
        assert outcome.served_by_matching
        assert outcome.routing_cost == 1.0

    def test_request_size_scales_routing_cost(self, small_leafspine):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        outcome = algo.serve(Request(0, 3, size=2.5))
        assert outcome.routing_cost == pytest.approx(5.0)

    def test_reconfiguration_cost_charged_per_change(self, small_leafspine):
        config = MatchingConfig(b=2, alpha=2)
        algo = RBMA(small_leafspine, config, rng=0)
        outcome = algo.serve(Request(0, 5))
        # One edge added -> alpha charged once.
        assert outcome.edges_added == ((0, 5),)
        assert outcome.reconfiguration_cost == pytest.approx(config.alpha)

    def test_totals_accumulate(self, small_leafspine):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        for _ in range(5):
            algo.serve(Request(1, 2))
        assert algo.requests_served == 5
        assert algo.total_routing_cost == pytest.approx(10.0)
        assert algo.total_cost == algo.total_routing_cost

    def test_matched_fraction(self, small_leafspine):
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        for _ in range(10):
            algo.serve(Request(0, 1))
        assert algo.matched_fraction == pytest.approx(0.9)

    def test_matched_fraction_empty(self, small_leafspine):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=1, alpha=1))
        assert algo.matched_fraction == 0.0

    def test_serve_all_returns_cost_delta(self, small_leafspine, uniform_trace):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        cost = algo.serve_all(list(uniform_trace.requests()))
        assert cost == pytest.approx(algo.total_cost)
        assert cost == pytest.approx(2.0 * len(uniform_trace))

    def test_invalid_pair_rejected(self, small_leafspine):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        with pytest.raises(Exception):
            algo.serve(Request(0, 99))

    def test_reset_clears_state(self, small_leafspine):
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        algo.serve(Request(0, 1))
        algo.reset()
        assert algo.requests_served == 0
        assert algo.total_cost == 0.0
        assert len(algo.matching) == 0
        # Serving again works after the reset.
        algo.serve(Request(0, 1))
        assert algo.requests_served == 1

    def test_serve_outcome_total_cost(self, small_leafspine):
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        outcome = algo.serve(Request(0, 5))
        assert outcome.total_cost == pytest.approx(
            outcome.routing_cost + outcome.reconfiguration_cost
        )


def _replay_state(algo, trace):
    if algo.requires_full_trace:
        algo.fit(trace)
    algo.serve_batch(trace)
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


@pytest.mark.parametrize(
    "name", sorted({ALGORITHMS.canonical(name) for name in ALGORITHMS.names()})
)
def test_reset_then_replay_equals_a_fresh_instance(name):
    """reset() keeps the seed: replaying after it repeats the first run."""
    topology = FatTreeTopology(n_racks=16)
    trace = zipf_pair_trace(n_nodes=16, n_requests=3000, exponent=1.3, seed=4)
    params = {"solver": "greedy"} if name == "so-bma" else {}

    def build():
        return ALGORITHMS.build(name, topology, MatchingConfig(b=3, alpha=8.0), 7, **params)

    fresh = _replay_state(build(), trace)
    algo = build()
    first = _replay_state(algo, trace)
    algo.reset()
    assert _replay_state(algo, trace) == first == fresh
