"""Tests for the prediction-augmented extension (PredictiveBMA)."""

import numpy as np
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

    def test_extend_equals_observing_in_order(self):
        rng = np.random.default_rng(8)
        lo = rng.integers(0, 5, size=40)
        hi = lo + rng.integers(1, 4, size=40)
        savings = rng.integers(0, 4, size=40) * 0.5
        for window in (1, 7, 40, 100):
            one_by_one = SlidingWindowPredictor(window)
            batched = SlidingWindowPredictor(window)
            for pair, saving in zip(zip(lo.tolist(), hi.tolist()), savings.tolist()):
                one_by_one.observe(pair, saving)
            batched.extend(lo[:13], hi[:13], savings[:13])
            batched.extend(lo[13:], hi[13:], savings[13:])
            assert batched.predicted_weights() == one_by_one.predicted_weights()
            for got, want in zip(batched.window_arrays(), one_by_one.window_arrays()):
                np.testing.assert_array_equal(got, want)
            assert len(batched.window_arrays()[0]) == min(window, 40)

    def test_reset(self):
        p = SlidingWindowPredictor(window=4)
        p.observe((0, 1), 1.0)
        p.reset()
        assert p.predicted_weights() == {}

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowPredictor(window=0)


def _state(algo):
    """Everything per-request serving determines, the predictor's window included."""
    return (algo.total_routing_cost, algo.total_reconfiguration_cost,
            algo.requests_served, algo.matched_requests,
            sorted(algo.matching.edges), algo.matching.additions,
            algo.matching.removals, algo.predictor.predicted_weights(),
            algo._since_reconfig)


class TestBatchedInstalls:
    """``serve_batch`` equals per-request ``serve`` at every segment end."""

    @pytest.mark.parametrize("period, window, chunk", [
        (50, 400, 30),    # every segment is shorter than the window
        (40, 100, 40),    # every install falls on a segment's last request
        (37, 90, 64),     # the period does not divide the chunk
        (200, 60, 17),    # a window shorter than the period
        (1, 5, 16),       # an install after every request
        (25, 2000, 900),  # one segment, the window never full
    ])
    def test_segments_match_per_request_serving(self, small_fattree, monkeypatch,
                                                 period, window, chunk):
        trace = zipf_pair_trace(n_nodes=16, n_requests=900, exponent=1.3,
                                repeat_probability=0.5, seed=4)
        config = MatchingConfig(b=2, alpha=4)
        sequential = PredictiveBMA(small_fattree, config, period=period, window=window)
        batched = PredictiveBMA(small_fattree, config, period=period, window=window)
        batched.min_segment = 1  # every segment takes the batched path

        def no_per_request_serving(request):
            raise AssertionError("serve_batch fell back to serve")

        monkeypatch.setattr(batched, "serve", no_per_request_serving)
        for start in range(0, len(trace), chunk):
            segment = trace[start:start + chunk]
            for request in segment.requests():
                sequential.serve(request)
            batched.serve_batch(segment)
            assert _state(batched) == _state(sequential), start
        assert sequential.matching.additions > 0


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
