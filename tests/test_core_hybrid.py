"""Tests for the prediction-robust combiner (HybridBMA)."""

import pytest

from repro.config import MatchingConfig
from repro.core import (
    HybridBMA,
    ObliviousRouting,
    OnlineBMatchingAlgorithm,
    RBMA,
    make_algorithm,
)
from repro.core import predictive as predictive_module
from repro.errors import ConfigurationError, DegreeConstraintError, PagingError
from repro.matching import greedy_b_matching
from repro.matching.validation import check_b_matching
from repro.paging import make_paging_factory
from repro.topology import FatTreeTopology
from repro.traffic import hotspot_trace, zipf_pair_trace
from repro.types import Request


class TestHybridBMA:
    def test_registered(self, small_leafspine):
        algo = make_algorithm("hybrid", small_leafspine, MatchingConfig(b=2, alpha=4), rng=0)
        assert isinstance(algo, HybridBMA)

    def test_starts_following_robust_expert(self, small_leafspine):
        algo = HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=4), rng=0)
        assert algo.following == "rbma"
        assert algo.switches == 0

    def test_matching_mirrors_followed_expert(self, small_leafspine):
        algo = HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0, period=50)
        for i in range(100):
            algo.serve(Request(i % 5, (i + 1) % 5))
        followed = algo._robust if algo.following == "rbma" else algo._predictive
        assert set(algo.matching.edges) == set(followed.matching.edges)

    def test_degree_bound_maintained(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=1500, exponent=1.3,
                                repeat_probability=0.4, seed=2)
        algo = HybridBMA(small_fattree, MatchingConfig(b=2, alpha=6), rng=1, period=100)
        for request in trace.requests():
            algo.serve(request)
            check_b_matching(algo.matching.edges, small_fattree.n_racks, 2)

    def test_cost_accounting_consistent(self, small_leafspine):
        algo = HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=4), rng=0)
        routing = reconf = 0.0
        for i in range(200):
            outcome = algo.serve(Request(i % 6, (i + 3) % 6))
            routing += outcome.routing_cost
            reconf += outcome.reconfiguration_cost
        assert algo.total_routing_cost == pytest.approx(routing)
        assert algo.total_reconfiguration_cost == pytest.approx(reconf)
        changes = algo.matching.additions + algo.matching.removals
        assert reconf == pytest.approx(changes * 4)

    def test_competitive_with_experts_on_skewed_traffic(self, small_fattree):
        trace = hotspot_trace(n_nodes=16, n_requests=3000, n_hot_pairs=4,
                              hot_fraction=0.9, seed=5)
        config = MatchingConfig(b=2, alpha=8)
        hybrid = HybridBMA(small_fattree, config, rng=0, period=200)
        rbma = RBMA(small_fattree, config, rng=0)
        oblivious = ObliviousRouting(small_fattree, config)
        hybrid_cost = sum(hybrid.serve(r).total_cost for r in trace.requests())
        rbma_cost = sum(rbma.serve(r).total_cost for r in trace.requests())
        oblivious_cost = sum(oblivious.serve(r).total_cost for r in trace.requests())
        # Robustness: never much worse than the safe expert, and clearly
        # better than doing nothing.
        assert hybrid_cost <= 3.0 * rbma_cost
        assert hybrid_cost < oblivious_cost

    def test_expert_costs_exposed(self, small_leafspine):
        algo = HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=4), rng=0)
        for _ in range(20):
            algo.serve(Request(0, 1))
        robust_cost, predictive_cost = algo.expert_costs
        assert robust_cost > 0 and predictive_cost > 0

    def test_switch_factor_validation(self, small_leafspine):
        with pytest.raises(ConfigurationError):
            HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=4), switch_factor=0.5)

    def test_reset(self, small_leafspine):
        algo = HybridBMA(small_leafspine, MatchingConfig(b=2, alpha=4), rng=0)
        for _ in range(30):
            algo.serve(Request(0, 1))
        algo.reset()
        assert algo.total_cost == 0.0
        assert algo.switches == 0
        assert algo.following == "rbma"
        assert len(algo.matching) == 0


# --------------------------------------------------------------------------- #
# Batched replay (the experts' segment logs) against per-request serving
# --------------------------------------------------------------------------- #

#: Segment sizes cycled by the short-segment cases: 1 to 20 requests.
_SHORT_SIZES = (1, 2, 3, 5, 8, 13, 20, 1, 17, 4, 11, 7)


def _trace():
    return zipf_pair_trace(n_nodes=16, n_requests=2000, exponent=1.3,
                           repeat_probability=0.3, seed=21)


def _hybrid(switch_factor=1.0, period=50, alpha=6.0, backend="fast"):
    algo = HybridBMA(FatTreeTopology(n_racks=16), MatchingConfig(b=3, alpha=alpha),
                     rng=3, switch_factor=switch_factor, period=period, window=100)
    algo.rebind_matching_backend(backend)
    algo.min_segment = 1  # every segment, however short, through ``_replay``
    return algo


def _expert_state(algo):
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


def _state(algo):
    """Everything per-request serving determines, the experts' included."""
    return (
        _expert_state(algo),
        algo.switches,
        algo.following,
        algo.expert_costs,
        _expert_state(algo._robust),
        _expert_state(algo._predictive),
        algo._predictive.predictor.predicted_weights(),
    )


def _sequential(trace, **params):
    """Per-request serving, and the positions of the requests that switched."""
    algo = _hybrid(**params)
    switches = []
    for position, request in enumerate(trace.requests()):
        algo.serve(request)
        if algo.switches > len(switches):
            switches.append(position)
    return algo, switches


def _batched(trace, bounds, **params):
    algo = _hybrid(**params)
    bounds = sorted({0, len(trace), *(b for b in bounds if 0 < b < len(trace))})
    for start, stop in zip(bounds, bounds[1:]):
        algo.serve_batch(trace[start:stop])
    return algo


def _short_bounds(n, sizes=_SHORT_SIZES):
    bounds, i = [0], 0
    while bounds[-1] < n:
        bounds.append(bounds[-1] + sizes[i % len(sizes)])
        i += 1
    return bounds


_CASES = [
    # (switch_factor, period, alpha): factor 1.0 is switch-heavy.
    (1.0, 1, 1.5),
    (1.0, 1, 6.0),
    (1.0, 2, 1.5),
    (1.0, 2, 48.0),
    (1.0, 50, 6.0),
    (1.0, 50, 48.0),
    (2.0, 50, 6.0),
]


class TestBatchedReplay:
    @pytest.mark.parametrize("switch_factor, period, alpha", _CASES)
    def test_cuts_around_every_switch(self, switch_factor, period, alpha):
        trace = _trace()
        params = dict(switch_factor=switch_factor, period=period, alpha=alpha)
        sequential, switches = _sequential(trace, **params)
        if switch_factor == 1.0 and alpha != 48.0:
            assert len(switches) >= 5  # the case really is switch-heavy
        cuts = [s + d for s in switches for d in (-1, 0, 1, 2)]
        for bounds in (cuts, [], [c for c in cuts if c % 3 == 0]):
            batched = _batched(trace, bounds, **params)
            assert _state(batched) == _state(sequential), bounds

    @pytest.mark.parametrize("switch_factor, period, alpha", _CASES)
    def test_short_segments(self, switch_factor, period, alpha):
        trace = _trace()[:600]
        params = dict(switch_factor=switch_factor, period=period, alpha=alpha)
        sequential, _ = _sequential(trace, **params)
        batched = _batched(trace, _short_bounds(len(trace)), **params)
        assert _state(batched) == _state(sequential)

    def test_reference_backend(self):
        trace = _trace()
        sequential, switches = _sequential(trace, period=2, alpha=1.5)
        assert switches
        batched = _batched(trace, [s + 1 for s in switches] + [700],
                           period=2, alpha=1.5, backend="reference")
        assert batched.matching_backend == "reference"
        assert _state(batched) == _state(sequential)

    def test_batch_path_never_serves_request_by_request(self, monkeypatch):
        trace = _trace()
        sequential, _ = _sequential(trace)

        def refuse(self, request):
            raise AssertionError(f"{self.name}.serve called")

        monkeypatch.setattr(OnlineBMatchingAlgorithm, "serve", refuse)
        batched = _batched(trace, [1, 2, 3, 400, 1500])
        assert _state(batched) == _state(sequential)

    @pytest.mark.parametrize("misses_before_failure", [0, 25, 120])
    @pytest.mark.parametrize("segment", [2000, 150, 7])
    def test_robust_pager_failing_mid_segment(self, misses_before_failure, segment):
        trace = _trace()

        def failing(algo):
            # The seam of tests/test_core_rbma.py: a marking pager whose
            # miss raises once the shared budget of misses is spent.
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

            algo._robust._factory = factory
            algo._robust._reset_policy_state()
            return algo

        sequential = failing(_hybrid())
        with pytest.raises(PagingError) as seq_error:
            for request in trace.requests():
                sequential.serve(request)
        batched = failing(_hybrid())
        with pytest.raises(PagingError) as batch_error:
            for start in range(0, len(trace), segment):
                batched.serve_batch(trace[start:start + segment])
        assert str(batch_error.value) == str(seq_error.value)
        assert 0 <= sequential.requests_served < len(trace)
        assert sequential._robust.requests_served == sequential.requests_served
        assert _state(batched) == _state(sequential)

    def test_predictive_install_failing_mid_segment(self, monkeypatch):
        """The combiner and the predictive expert stop where per-request serving
        does; the robust expert has served the whole segment."""
        trace = _trace()
        installs = [0]

        def invalid_on_fourth_install(weights, n_nodes, b):
            installs[0] += 1
            if installs[0] % 4 == 0:
                # Node 0 matched to b + 1 racks: the kernel refuses the last.
                return {(0, v) for v in range(1, b + 2)}
            return greedy_b_matching(weights, n_nodes, b)

        monkeypatch.setattr(predictive_module, "greedy_b_matching",
                            invalid_on_fourth_install)
        sequential = _hybrid()
        with pytest.raises(DegreeConstraintError) as seq_error:
            for request in trace.requests():
                sequential.serve(request)
        installs[0] = 0
        batched = _hybrid()
        with pytest.raises(DegreeConstraintError) as batch_error:
            batched.serve_batch(trace[:1000])
        assert str(batch_error.value) == str(seq_error.value)
        failed_at = sequential.requests_served
        assert failed_at == 199  # the fourth install follows request 199
        assert batched._robust.requests_served == 1000
        state, expected = _state(batched), _state(sequential)
        assert state[:3] == expected[:3]  # combiner, switches, following
        assert state[3][1] == expected[3][1]  # the predictive expert's cost
        assert state[5:] == expected[5:]  # the predictive expert
        assert sequential._robust.requests_served == failed_at + 1
