"""Tests for the deterministic BMA baseline."""

import pytest

from repro.config import MatchingConfig
from repro.core import BMA, ObliviousRouting
from repro.errors import TopologyError
from repro.matching.validation import check_b_matching
from repro.topology import LeafSpineTopology
from repro.traffic import zipf_pair_trace
from repro.types import Request


class TestSaturation:
    def test_pair_enters_after_paying_alpha(self, small_leafspine):
        # leaf-spine distances are 2; alpha=6 -> enters on the 3rd request.
        algo = BMA(small_leafspine, MatchingConfig(b=2, alpha=6))
        algo.serve(Request(0, 1))
        algo.serve(Request(0, 1))
        assert (0, 1) not in algo.matching
        assert algo.counter((0, 1)) == pytest.approx(4.0)
        algo.serve(Request(0, 1))
        assert (0, 1) in algo.matching
        assert algo.counter((0, 1)) == 0.0

    def test_matched_edge_accumulates_usefulness(self, small_leafspine):
        algo = BMA(small_leafspine, MatchingConfig(b=2, alpha=2))
        algo.serve(Request(0, 1))  # saturates immediately (2 >= 2)
        assert (0, 1) in algo.matching
        algo.serve(Request(0, 1))
        algo.serve(Request(0, 1))
        assert algo.usefulness((0, 1)) == 2

    def test_introspection_takes_either_orientation_and_checks_the_pair(self):
        algo = BMA(LeafSpineTopology(n_racks=8), MatchingConfig(b=2, alpha=40))
        for _ in range(3):
            algo.serve(Request(5, 1))
        assert algo.counter((1, 5)) == algo.counter((5, 1)) == pytest.approx(6.0)
        assert algo.usefulness((5, 1)) == 0
        with pytest.raises(TopologyError, match="out of range"):
            algo.counter((0, 13))
        with pytest.raises(TopologyError, match="out of range"):
            algo.counter((1, 99))
        with pytest.raises(TopologyError, match="self-pair"):
            algo.usefulness((9, 9))

    def test_eviction_prefers_least_useful(self, small_leafspine):
        algo = BMA(small_leafspine, MatchingConfig(b=1, alpha=2))
        algo.serve(Request(0, 1))            # matched
        for _ in range(5):
            algo.serve(Request(0, 1))        # very useful
        algo.serve(Request(0, 2))            # matched, never used afterwards
        assert (0, 2) in algo.matching and (0, 1) not in algo.matching
        # Node 0 is full; a third pair saturating must evict the less useful (0,2).
        algo.serve(Request(1, 0))            # rebuild usefulness for (0,1)? it's gone
        algo.serve(Request(0, 3))
        assert (0, 3) in algo.matching
        assert (0, 2) not in algo.matching

    def test_counters_reset_on_eviction(self, small_leafspine):
        algo = BMA(small_leafspine, MatchingConfig(b=1, alpha=4))
        # Pair (0,1) saturates (2 requests of length 2).
        algo.serve(Request(0, 1))
        algo.serve(Request(0, 1))
        assert (0, 1) in algo.matching
        # Pair (0,2) accrues one request (counter 2), pair (0,3) saturates next,
        # evicting (0,1) and resetting (0,2)'s counter.
        algo.serve(Request(0, 2))
        assert algo.counter((0, 2)) == pytest.approx(2.0)
        algo.serve(Request(0, 3))
        algo.serve(Request(0, 3))
        assert (0, 3) in algo.matching
        assert algo.counter((0, 2)) == 0.0

    def test_degree_bound_maintained(self, small_fattree, fb_like_trace):
        algo = BMA(small_fattree, MatchingConfig(b=3, alpha=8))
        for request in fb_like_trace.requests():
            algo.serve(request)
            check_b_matching(algo.matching.edges, small_fattree.n_racks, 3)

    def test_deterministic(self, small_fattree, fb_like_trace):
        costs = []
        for _ in range(2):
            algo = BMA(small_fattree, MatchingConfig(b=3, alpha=8))
            algo.serve_all(list(fb_like_trace.requests()))
            costs.append(algo.total_cost)
        assert costs[0] == costs[1]

    def test_beats_oblivious_on_skewed_traffic(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=3000, exponent=1.4,
                                repeat_probability=0.5, seed=2)
        config = MatchingConfig(b=4, alpha=8)
        bma = BMA(small_fattree, config)
        oblivious = ObliviousRouting(small_fattree, config)
        bma_cost = sum(bma.serve(r).routing_cost for r in trace.requests())
        obl_cost = sum(oblivious.serve(r).routing_cost for r in trace.requests())
        assert bma_cost < 0.85 * obl_cost

    def test_reset(self, small_leafspine):
        algo = BMA(small_leafspine, MatchingConfig(b=2, alpha=4))
        algo.serve(Request(0, 1))
        algo.reset()
        assert algo.counter((0, 1)) == 0.0
        assert len(algo.matching) == 0
        algo.serve(Request(0, 1))
        assert algo.requests_served == 1
