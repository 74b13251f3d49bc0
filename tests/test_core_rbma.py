"""Tests for R-BMA, the paper's randomized online algorithm."""

import math

import numpy as np
import pytest

from repro.config import MatchingConfig
from repro.core import RBMA, ObliviousRouting
from repro.core.base import _MIN_EVENT_SEGMENT
from repro.errors import PagingError, TopologyError
from repro.matching.validation import check_b_matching
from repro.paging import RandomizedMarking, make_paging_factory
from repro.topology import LeafSpineTopology, StarTopology
from repro.traffic import zipf_pair_trace
from repro.types import Request


class TestTheorem1Filter:
    def test_threshold_formula(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=10), rng=0)
        assert algo.threshold(2.0) == math.ceil(10 / 2)
        assert algo.threshold(4.0) == math.ceil(10 / 4)
        assert algo.threshold(1.0) == 10

    def test_threshold_at_least_one(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=1), rng=0)
        assert algo.threshold(4.0) == 1

    def test_no_reconfiguration_before_threshold(self, small_fattree):
        # alpha=10 and same-pod distance 2 -> k_e = 5.
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=10), rng=0)
        for i in range(4):
            outcome = algo.serve(Request(0, 1))
            assert outcome.edges_added == ()
        assert algo.pending_count((0, 1)) == 4
        outcome = algo.serve(Request(0, 1))  # 5th request is special
        assert outcome.edges_added == ((0, 1),)
        assert algo.pending_count((0, 1)) == 0

    def test_pending_count_takes_either_orientation_and_checks_range(self):
        algo = RBMA(LeafSpineTopology(n_racks=8), MatchingConfig(b=2, alpha=40), rng=0)
        for _ in range(3):
            algo.serve(Request(5, 1))
        assert algo.pending_count((1, 5)) == 3
        assert algo.pending_count((5, 1)) == 3
        # 0 * 8 + 13 is the int key of (1, 5); it must not alias it.
        with pytest.raises(TopologyError, match="out of range"):
            algo.pending_count((0, 13))
        with pytest.raises(TopologyError, match="self-pair"):
            algo.pending_count((5, 5))

    def test_counter_resets_after_special_request(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=10), rng=0)
        for _ in range(5):
            algo.serve(Request(0, 1))
        for _ in range(3):
            algo.serve(Request(0, 1))
        assert algo.pending_count((0, 1)) == 3

    def test_shorter_pairs_need_more_requests(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=4, alpha=12), rng=0)
        near = small_fattree.validate_pair(0, 1)      # same pod, length 2
        far = small_fattree.validate_pair(0, 15)      # cross pod, length 4
        assert small_fattree.pair_length(near) == 2
        assert small_fattree.pair_length(far) == 4
        assert algo.threshold(2.0) > algo.threshold(4.0)


class TestRBMABehaviour:
    def test_degree_bound_maintained_under_load(self, small_fattree, fb_like_trace):
        algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=8), rng=1)
        for request in fb_like_trace.requests():
            algo.serve(request)
            check_b_matching(algo.matching.edges, small_fattree.n_racks, 3)

    def test_beats_oblivious_on_skewed_traffic(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=3000, exponent=1.4,
                                repeat_probability=0.5, seed=2)
        config = MatchingConfig(b=4, alpha=8)
        rbma = RBMA(small_fattree, config, rng=0)
        oblivious = ObliviousRouting(small_fattree, config)
        rbma_cost = sum(rbma.serve(r).routing_cost for r in trace.requests())
        obl_cost = sum(oblivious.serve(r).routing_cost for r in trace.requests())
        assert rbma_cost < 0.85 * obl_cost

    def test_hot_pair_gets_matched_and_stays(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=6), rng=0)
        for _ in range(200):
            algo.serve(Request(0, 9))
        assert (0, 9) in algo.matching
        assert algo.matched_fraction > 0.9

    def test_reproducible_with_seed(self, small_fattree, fb_like_trace):
        costs = []
        for _ in range(2):
            algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=8), rng=123)
            algo.serve_all(list(fb_like_trace.requests()))
            costs.append(algo.total_cost)
        assert costs[0] == costs[1]

    def test_different_seeds_may_differ(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=2000, exponent=1.2, seed=5)
        totals = set()
        for seed in range(4):
            algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=4), rng=seed)
            algo.serve_all(list(trace.requests()))
            totals.add(round(algo.total_cost, 6))
        assert len(totals) > 1  # randomized algorithm actually randomizes

    def test_paging_policy_ablation_runs(self, small_fattree, fb_like_trace):
        for policy in ("lru", "fifo", "lfu", "random"):
            algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=8), rng=0,
                        paging_policy=policy)
            algo.serve_all(list(fb_like_trace.requests()))
            check_b_matching(algo.matching.edges, small_fattree.n_racks, 2)

    def test_explicit_paging_factory(self, small_fattree):
        factory_calls = []

        def factory(capacity, rng):
            factory_calls.append(capacity)
            return RandomizedMarking(capacity, rng=rng)

        algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=2), rng=0, paging_factory=factory)
        algo.serve(Request(0, 1))
        assert factory_calls == [3, 3]  # one pager per endpoint, capacity b

    def test_reset_policy_state(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=10), rng=0)
        for _ in range(3):
            algo.serve(Request(0, 1))
        algo.reset()
        assert algo.pending_count((0, 1)) == 0
        assert algo.matcher.active_nodes == frozenset()

    def test_theoretical_upper_bound_positive(self, small_fattree):
        algo = RBMA(small_fattree, MatchingConfig(b=6, alpha=40), rng=0)
        bound = algo.theoretical_upper_bound()
        assert bound > 1.0

    def test_marked_edges_still_serve_requests(self, small_fattree):
        """Lazy removal (footnote 2): a marked edge keeps serving at cost 1."""
        algo = RBMA(small_fattree, MatchingConfig(b=1, alpha=2), rng=0)
        # Install (0, 1); then make node 0's cache evict it by loading (0, 2).
        algo.serve(Request(0, 1))
        algo.serve(Request(0, 2))
        # If (0, 1) survived as a marked edge, a request to it still costs 1.
        if (0, 1) in algo.matching:
            outcome = algo.serve(Request(0, 1))
            assert outcome.routing_cost == 1.0


# --------------------------------------------------------------------------- #
# Event-skipping serve_batch: equal to per-request serve, state for state
# --------------------------------------------------------------------------- #

#: Segment sizes cycled through by the differential replays: single
#: requests, both sides of the event-replay crossover, and long segments.
_CUT_SIZES = (
    1, 1, _MIN_EVENT_SEGMENT - 1, _MIN_EVENT_SEGMENT, _MIN_EVENT_SEGMENT + 1,
    1, 300, _MIN_EVENT_SEGMENT - 1, 2, 700, _MIN_EVENT_SEGMENT + 1, 1, 1000,
)


def _segments(trace, sizes=_CUT_SIZES):
    start, i = 0, 0
    while start < len(trace):
        stop = min(len(trace), start + sizes[i % len(sizes)])
        yield trace[start:stop]
        start, i = stop, i + 1


def _pager_state(algo):
    state = {}
    for node in sorted(algo.matcher.active_nodes):
        pager = algo.matcher.pager(node)
        state[node] = (pager.cache, getattr(pager, "marked_pages", None), pager.stats)
    return state


def _full_state(algo, pairs):
    return (
        algo.total_routing_cost,
        algo.total_reconfiguration_cost,
        algo.requests_served,
        algo.matched_requests,
        {pair: algo.pending_count(pair) for pair in pairs},
        sorted(algo.matching.edges),
        sorted(algo.matching.marked_edges),
        algo.matching.additions,
        algo.matching.removals,
        _pager_state(algo),
    )


class TestEventSkippingReplay:
    @pytest.mark.parametrize("policy", ["marking", "lru"])
    @pytest.mark.parametrize(
        "alpha",
        [
            2.5,   # non-integral: k_e = 2 within a pod, 1 across
            1.5,   # below every length: k_e = 1, every request is special
            48.0,  # k_e = 24 within a pod, 12 across
        ],
    )
    def test_segments_equal_per_request_serve(self, small_fattree, alpha, policy):
        trace = zipf_pair_trace(n_nodes=16, n_requests=4000, exponent=1.3,
                                repeat_probability=0.3, seed=21)
        config = MatchingConfig(b=3, alpha=alpha)
        batched = RBMA(small_fattree, config, rng=4, paging_policy=policy)
        sequential = RBMA(small_fattree, config, rng=4, paging_policy=policy)
        for segment in _segments(trace):
            batched.serve_batch(segment)
        for request in trace.requests():
            sequential.serve(request)
        pairs = set(trace.pairs())
        assert _full_state(batched, pairs) == _full_state(sequential, pairs)
        if alpha == 1.5:
            assert all(count == 0 for count in _full_state(batched, pairs)[4].values())

    def test_keys_beyond_16_bits_equal_per_request_serve(self):
        # 300 racks: pair keys exceed 2**16, so the pair sort is not a radix sort.
        topology = StarTopology(n_racks=300)
        trace = zipf_pair_trace(n_nodes=300, n_requests=3000, exponent=1.4,
                                repeat_probability=0.4, seed=2)
        config = MatchingConfig(b=2, alpha=5.0)
        batched = RBMA(topology, config, rng=9)
        sequential = RBMA(topology, config, rng=9)
        for segment in _segments(trace):
            batched.serve_batch(segment)
        for request in trace.requests():
            sequential.serve(request)
        pairs = set(trace.pairs())
        assert max(pair[0] * 300 + pair[1] for pair in pairs) >= 1 << 16
        assert _full_state(batched, pairs) == _full_state(sequential, pairs)

    @pytest.mark.parametrize("misses_before_failure", [3, 40, 150])
    @pytest.mark.parametrize("sizes", [(4000,), _CUT_SIZES])
    def test_failing_special_leaves_per_request_state(
        self, small_fattree, misses_before_failure, sizes
    ):
        trace = zipf_pair_trace(n_nodes=16, n_requests=4000, exponent=1.3, seed=8)

        def failing_factory():
            budget = [misses_before_failure]
            marking = make_paging_factory("marking")

            def factory(capacity, rng):
                pager = marking(capacity, rng)
                miss = pager.miss

                def miss_or_fail(page):
                    if page not in pager:
                        budget[0] -= 1
                        if budget[0] < 0:
                            raise PagingError(f"injected miss failure at {page}")
                    return miss(page)

                pager.miss = miss_or_fail
                return pager

            return factory

        config = MatchingConfig(b=2, alpha=6.0)
        sequential = RBMA(small_fattree, config, rng=1, paging_factory=failing_factory())
        with pytest.raises(PagingError) as seq_error:
            for request in trace.requests():
                sequential.serve(request)

        batched = RBMA(small_fattree, config, rng=1, paging_factory=failing_factory())
        with pytest.raises(PagingError) as batch_error:
            for segment in _segments(trace, sizes):
                batched.serve_batch(segment)

        assert str(batch_error.value) == str(seq_error.value)
        assert 0 < sequential.requests_served < len(trace)
        pairs = set(trace.pairs())
        assert _full_state(batched, pairs) == _full_state(sequential, pairs)

    def test_only_theorem1_specials_reach_the_pagers(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=5000, exponent=1.2, seed=3)
        algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=9.0), rng=0)
        expected = 0
        for segment in _segments(trace, (700, _MIN_EVENT_SEGMENT, 1, 1300, 57)):
            # Sum over pairs e of floor((c0_e + n_e) / k_e), c0_e carried in.
            counts = {}
            for pair in segment.pairs():
                counts[pair] = counts.get(pair, 0) + 1
            for pair, n_e in counts.items():
                k_e = algo.threshold(float(small_fattree.pair_length(pair)))
                expected += (algo.pending_count(pair) + n_e) // k_e
            algo.serve_batch(segment)
        # Each special is one request at each endpoint's pager.
        matcher = algo.matcher
        requests = sum(matcher.pager(node).stats.requests for node in matcher.active_nodes)
        assert requests == 2 * expected
        assert 0 < expected < len(trace)
