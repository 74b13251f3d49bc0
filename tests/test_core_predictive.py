"""Tests for the prediction-augmented extension (PredictiveBMA)."""

import pytest

from repro.config import MatchingConfig
from repro.core import PredictiveBMA
from repro.core import predictive as predictive_module
from repro.core.predictive import SlidingWindowPredictor
from repro.errors import ConfigurationError, DegreeConstraintError
from repro.matching import greedy_b_matching
from repro.matching.validation import check_b_matching
from repro.traffic import zipf_pair_trace
from repro.types import Request


class TestSlidingWindowPredictor:
    def test_accumulates_weights(self):
        p = SlidingWindowPredictor(window=10)
        p.observe((0, 1), 3.0)
        p.observe((0, 1), 1.0)
        p.observe((2, 3), 2.0)
        weights = p.predicted_weights()
        assert weights[(0, 1)] == pytest.approx(4.0)
        assert weights[(2, 3)] == pytest.approx(2.0)

    def test_window_expires_old_observations(self):
        p = SlidingWindowPredictor(window=2)
        p.observe((0, 1), 1.0)
        p.observe((2, 3), 1.0)
        p.observe((4, 5), 1.0)  # pushes (0, 1) out
        weights = p.predicted_weights()
        assert (0, 1) not in weights
        assert set(weights) == {(2, 3), (4, 5)}

    def test_reset(self):
        p = SlidingWindowPredictor(window=4)
        p.observe((0, 1), 1.0)
        p.reset()
        assert p.predicted_weights() == {}

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowPredictor(window=0)


class TestPredictiveBMA:
    def test_reconfigures_periodically(self, small_fattree):
        algo = PredictiveBMA(small_fattree, MatchingConfig(b=2, alpha=4), period=10, window=50)
        for i in range(9):
            outcome = algo.serve(Request(0, 1))
            assert outcome.edges_added == ()
        outcome = algo.serve(Request(0, 1))  # 10th request triggers reconfiguration
        assert (0, 1) in algo.matching

    def test_degree_bound_maintained(self, small_fattree):
        trace = zipf_pair_trace(n_nodes=16, n_requests=1500, exponent=1.3,
                                repeat_probability=0.4, seed=9)
        algo = PredictiveBMA(small_fattree, MatchingConfig(b=2, alpha=4), period=100)
        for request in trace.requests():
            algo.serve(request)
            check_b_matching(algo.matching.edges, small_fattree.n_racks, 2)

    def test_adapts_to_shifting_hotspot(self, small_fattree):
        algo = PredictiveBMA(small_fattree, MatchingConfig(b=1, alpha=4), period=50, window=100)
        for _ in range(200):
            algo.serve(Request(0, 1))
        assert (0, 1) in algo.matching
        for _ in range(200):
            algo.serve(Request(2, 3))
        assert (2, 3) in algo.matching

    def test_rejects_bad_period(self, small_fattree):
        with pytest.raises(ConfigurationError):
            PredictiveBMA(small_fattree, MatchingConfig(b=2, alpha=4), period=0)

    def test_reset(self, small_fattree):
        algo = PredictiveBMA(small_fattree, MatchingConfig(b=2, alpha=4), period=5)
        for _ in range(7):
            algo.serve(Request(0, 1))
        algo.reset()
        assert algo.predictor.predicted_weights() == {}
        assert len(algo.matching) == 0

    def test_failing_install_leaves_per_request_state(self, small_fattree, monkeypatch):
        """The trigger is not served, but the predictor saw it and the matching
        keeps what the install changed, as with per-request serving."""
        trace = zipf_pair_trace(n_nodes=16, n_requests=600, exponent=1.3, seed=3)
        installs = [0]

        def invalid_on_third_install(weights, n_nodes, b):
            installs[0] += 1
            if installs[0] == 3:
                return {(0, v) for v in range(1, b + 2)}  # degree b + 1 at node 0
            return greedy_b_matching(weights, n_nodes, b)

        monkeypatch.setattr(predictive_module, "greedy_b_matching",
                            invalid_on_third_install)

        def state(algo):
            return (algo.total_routing_cost, algo.total_reconfiguration_cost,
                    algo.requests_served, algo.matched_requests,
                    sorted(algo.matching.edges), algo.matching.additions,
                    algo.matching.removals, algo.predictor.predicted_weights())

        config = MatchingConfig(b=2, alpha=4)
        sequential = PredictiveBMA(small_fattree, config, period=50)
        with pytest.raises(DegreeConstraintError) as seq_error:
            for request in trace.requests():
                sequential.serve(request)
        installs[0] = 0
        batched = PredictiveBMA(small_fattree, config, period=50)
        with pytest.raises(DegreeConstraintError) as batch_error:
            for start in range(0, len(trace), 70):
                batched.serve_batch(trace[start:start + 70])
        assert str(batch_error.value) == str(seq_error.value)
        assert sequential.requests_served == 149
        assert state(batched) == state(sequential)
