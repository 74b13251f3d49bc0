"""Tests for the simulation engine and the Timer."""

import time

import numpy as np
import pytest

from repro.config import MatchingConfig, SimulationConfig
from repro.core import BMA, RBMA, ObliviousRouting, StaticOfflineBMA
from repro.errors import SimulationError
from repro.simulation import Timer, run_simulation
from repro.traffic import uniform_random_trace, zipf_pair_trace


class TestCheckpointPositions:
    """Contract (see SimulationConfig): exactly min(checkpoints, n_requests)
    strictly increasing positions ending at n_requests — rounding collisions
    on short traces must be resolved, not silently dropped."""

    def test_exhaustive_contract(self):
        from repro.simulation.engine import _checkpoint_positions

        for n_requests in range(1, 120):
            for n_checkpoints in (1, 2, 3, 5, 7, 10, 19, 20, 50, 119, 200):
                positions = _checkpoint_positions(n_requests, n_checkpoints)
                expected = min(n_checkpoints, n_requests)
                assert len(positions) == expected, (n_requests, n_checkpoints)
                assert positions[-1] == n_requests, (n_requests, n_checkpoints)
                assert positions[0] >= 1, (n_requests, n_checkpoints)
                assert (np.diff(positions) >= 1).all(), (n_requests, n_checkpoints)

    def test_evenly_spaced_when_no_collisions(self):
        from repro.simulation.engine import _checkpoint_positions

        assert _checkpoint_positions(100, 4).tolist() == [25, 50, 75, 100]
        assert _checkpoint_positions(20, 20).tolist() == list(range(1, 21))

    def test_empty_trace_rejected(self):
        from repro.simulation.engine import _checkpoint_positions

        with pytest.raises(SimulationError):
            _checkpoint_positions(0, 10)

    def test_run_records_exactly_min_checkpoints(self, small_leafspine):
        for n_requests, n_checkpoints in [(7, 5), (13, 13), (9, 20), (40, 7)]:
            trace = uniform_random_trace(n_nodes=8, n_requests=n_requests, seed=1)
            algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
            result = run_simulation(
                algo, trace, SimulationConfig(checkpoints=n_checkpoints)
            )
            assert len(result.series.requests) == min(n_checkpoints, n_requests)
            assert result.series.requests[-1] == n_requests


class TestCheckpointPositionOverride:
    """SimulationConfig.checkpoint_positions replaces the even default."""

    def _run(self, positions, n_requests=60, backend="fast", algo_cls=RBMA):
        trace = zipf_pair_trace(n_nodes=8, n_requests=n_requests, seed=3)
        topo_cfg = MatchingConfig(b=2, alpha=4)
        from repro.topology import LeafSpineTopology

        algo = algo_cls(LeafSpineTopology(n_racks=8, n_spines=2), topo_cfg, rng=1)
        return run_simulation(
            algo,
            trace,
            SimulationConfig(
                checkpoint_positions=positions, matching_backend=backend
            ),
        )

    def test_override_is_respected_on_both_replay_paths(self):
        positions = (1, 4, 16, 60)
        for backend in ("fast", "reference"):
            result = self._run(positions, backend=backend)
            assert result.series.requests.tolist() == list(positions)

    def test_override_may_stop_short_of_the_trace_end(self):
        # Positions ending early still serve (and total) the whole trace.
        result = self._run((5, 10), n_requests=40)
        assert result.series.requests.tolist() == [5, 10]
        assert result.n_requests == 40
        final = self._run((5, 10, 40), n_requests=40)
        assert result.series.routing_cost.tolist() == final.series.routing_cost.tolist()[:2]
        assert result.total_routing_cost == final.total_routing_cost

    def test_override_beyond_trace_rejected(self):
        with pytest.raises(SimulationError, match="checkpoint_positions"):
            self._run((10, 100), n_requests=50)

    def test_validation_rejects_bad_positions(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationConfig(checkpoint_positions=(3, 3, 5))
        with pytest.raises(ConfigurationError):
            SimulationConfig(checkpoint_positions=(0, 5))
        with pytest.raises(ConfigurationError):
            SimulationConfig(checkpoint_positions=())

    def test_positions_coerced_to_int_tuple(self):
        config = SimulationConfig(checkpoint_positions=[1, 5, 9])
        assert config.checkpoint_positions == (1, 5, 9)
        assert config.to_dict()["checkpoint_positions"] == [1, 5, 9]
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_log_spaced_helper_contract(self):
        from repro.simulation import log_spaced_checkpoints

        assert log_spaced_checkpoints(10_000, 5) == (1, 10, 100, 1000, 10000)
        for n_requests in (1, 2, 7, 97, 1000):
            for k in (1, 2, 5, 20, 200):
                positions = log_spaced_checkpoints(n_requests, k)
                assert len(positions) == min(k, n_requests)
                assert positions[-1] == n_requests
                assert positions[0] >= 1
                assert all(b > a for a, b in zip(positions, positions[1:]))

    def test_log_spaced_positions_survive_spec_roundtrip(self):
        from repro.experiments import ExperimentSpec
        from repro.simulation import log_spaced_checkpoints

        spec = ExperimentSpec(
            algorithm={"name": "rbma", "b": 2, "alpha": 4},
            traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 100}},
            simulation={"checkpoint_positions": log_spaced_checkpoints(100, 6)},
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.simulation.checkpoint_positions == spec.simulation.checkpoint_positions
        result = spec.execute()
        assert result.series.requests.tolist() == list(
            log_spaced_checkpoints(100, 6)
        )


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_start_twice_rejected(self):
        timer = Timer()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0
        assert not timer.running

    def test_elapsed_while_running(self):
        timer = Timer()
        timer.start()
        assert timer.running
        assert timer.elapsed >= 0.0
        timer.stop()


class TestRunSimulation:
    def test_result_metadata(self, small_fattree, fb_like_trace):
        algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=8), rng=0)
        result = run_simulation(algo, fb_like_trace, SimulationConfig(checkpoints=10, seed=4))
        assert result.algorithm == "rbma"
        assert result.workload == "facebook-database"
        assert result.b == 3
        assert result.alpha == 8
        assert result.n_requests == len(fb_like_trace)
        assert result.seed == 4

    def test_series_monotone_and_consistent(self, small_fattree, fb_like_trace):
        algo = RBMA(small_fattree, MatchingConfig(b=3, alpha=8), rng=0)
        result = run_simulation(algo, fb_like_trace, SimulationConfig(checkpoints=10))
        series = result.series
        assert np.all(np.diff(series.requests) > 0)
        assert np.all(np.diff(series.routing_cost) >= 0)
        assert np.all(np.diff(series.reconfiguration_cost) >= 0)
        assert np.all(np.diff(series.elapsed_seconds) >= 0)
        assert series.requests[-1] == len(fb_like_trace)
        assert series.routing_cost[-1] == pytest.approx(result.total_routing_cost)

    def test_checkpoint_count(self, small_fattree, fb_like_trace):
        algo = ObliviousRouting(small_fattree, MatchingConfig(b=2, alpha=4))
        result = run_simulation(algo, fb_like_trace, SimulationConfig(checkpoints=7))
        assert len(result.series.requests) == 7

    def test_more_checkpoints_than_requests(self, small_leafspine):
        trace = uniform_random_trace(n_nodes=8, n_requests=5, seed=0)
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        result = run_simulation(algo, trace, SimulationConfig(checkpoints=50))
        # Contract: short traces checkpoint every request, never fewer.
        assert result.series.requests.tolist() == [1, 2, 3, 4, 5]

    def test_offline_algorithm_is_fitted(self, small_fattree, fb_like_trace):
        algo = StaticOfflineBMA(small_fattree, MatchingConfig(b=3, alpha=8))
        result = run_simulation(algo, fb_like_trace)
        assert algo.fitted
        assert result.matched_fraction > 0.0

    def test_validate_flag(self, small_fattree, fb_like_trace):
        algo = BMA(small_fattree, MatchingConfig(b=2, alpha=8))
        run_simulation(algo, fb_like_trace, validate=True)

    def test_rejects_reused_algorithm(self, small_fattree, fb_like_trace):
        algo = RBMA(small_fattree, MatchingConfig(b=2, alpha=8), rng=0)
        run_simulation(algo, fb_like_trace)
        with pytest.raises(SimulationError):
            run_simulation(algo, fb_like_trace)
        algo.reset()
        run_simulation(algo, fb_like_trace)  # fine after reset

    def test_rejects_oversized_trace(self, small_leafspine):
        trace = uniform_random_trace(n_nodes=20, n_requests=10, seed=0)
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        with pytest.raises(SimulationError):
            run_simulation(algo, trace)

    def test_empty_trace_rejected(self, small_leafspine):
        trace = uniform_random_trace(n_nodes=8, n_requests=0, seed=0)
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        with pytest.raises(SimulationError):
            run_simulation(algo, trace)

    def test_matching_history_collection(self, small_leafspine):
        trace = zipf_pair_trace(n_nodes=8, n_requests=50, seed=1)
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        result = run_simulation(
            algo, trace, SimulationConfig(checkpoints=5, collect_matching_history=True)
        )
        history = result.extra["matching_history"]
        assert len(history) == 50
        assert all(isinstance(h, frozenset) for h in history)
        manual = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        expected = []
        for request in trace:
            manual.serve(request)
            expected.append(manual.matching.edges)
        assert history == expected

    @pytest.mark.parametrize("backend, batch_calls", [("reference", 0), ("fast", 5)])
    def test_backend_picks_the_serve_batch_loop(self, small_leafspine, backend, batch_calls):
        """The reference backend replays through the base class's per-request
        loop; every other backend calls the algorithm's own serve_batch once
        per checkpoint segment."""
        trace = zipf_pair_trace(n_nodes=8, n_requests=50, seed=1)
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=2), rng=0)
        calls = []
        own = algo.serve_batch
        algo.serve_batch = lambda requests: calls.append(len(requests)) or own(requests)
        run_simulation(algo, trace, SimulationConfig(checkpoints=5, matching_backend=backend))
        assert len(calls) == batch_calls
        assert algo.requests_served == 50

    def test_oblivious_cost_matches_trace_lengths(self, small_leafspine, uniform_trace):
        algo = ObliviousRouting(small_leafspine, MatchingConfig(b=2, alpha=4))
        result = run_simulation(algo, uniform_trace)
        assert result.total_routing_cost == pytest.approx(2.0 * len(uniform_trace))
        assert result.total_reconfiguration_cost == 0.0


from repro.experiments.observers import SimulationObserver


class TestEngineCheckpointOverrideValidation:
    """The engine re-validates explicit positions at resolution time.

    ``SimulationConfig.__post_init__`` validates at construction, but configs
    doctored after the fact (or deserialised by other code) reach the engine
    unchecked — ``_validate_checkpoint_override`` must reject them with a
    clear :class:`SimulationError` instead of silently truncating or looping.
    """

    def _validate(self, positions):
        from repro.simulation.engine import _validate_checkpoint_override

        return _validate_checkpoint_override(positions)

    def test_accepts_integral_values_of_any_numeric_dtype(self):
        assert self._validate((1, 5, 9)).tolist() == [1, 5, 9]
        assert self._validate([10.0, 20.0]).tolist() == [10, 20]
        assert self._validate(np.array([3, 7], dtype=np.uint16)).tolist() == [3, 7]

    def test_rejects_non_integral_floats_instead_of_truncating(self):
        with pytest.raises(SimulationError, match="refusing to silently truncate"):
            self._validate((5, 10.7))
        with pytest.raises(SimulationError, match="refusing to silently truncate"):
            self._validate((float("nan"),))

    def test_rejects_positions_below_one(self):
        with pytest.raises(SimulationError, match=">= 1"):
            self._validate((0, 5))
        with pytest.raises(SimulationError, match=">= 1"):
            self._validate((-3, 5))

    def test_rejects_non_increasing_positions(self):
        with pytest.raises(SimulationError, match="strictly increasing"):
            self._validate((3, 3, 5))
        with pytest.raises(SimulationError, match="strictly increasing"):
            self._validate((9, 4))

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(SimulationError, match="non-empty 1-D"):
            self._validate(())
        with pytest.raises(SimulationError, match="non-empty 1-D"):
            self._validate([[1, 2], [3, 4]])

    def test_rejects_non_numeric(self):
        with pytest.raises(SimulationError, match="must be integers"):
            self._validate(("one", "two"))

    def test_doctored_config_fails_at_run_time_not_silently(self, small_leafspine):
        """A config whose positions bypassed __post_init__ still fails loudly."""
        config = SimulationConfig(checkpoint_positions=(5, 10))
        object.__setattr__(config, "checkpoint_positions", (5, 10.7))
        trace = zipf_pair_trace(n_nodes=8, n_requests=40, seed=3)
        algo = RBMA(small_leafspine, MatchingConfig(b=2, alpha=4), rng=1)
        with pytest.raises(SimulationError, match="refusing to silently truncate"):
            run_simulation(algo, trace, config)


class _BatchRecorder(SimulationObserver):
    """Records the (start, stop) of every batch and when on_end fires."""

    def __init__(self, batch_interval=None):
        self.batch_interval = batch_interval
        self.batches = []
        self.ended_after = None

    def on_request_batch(self, context, start, stop):
        self.batches.append((start, stop))

    def on_end(self, context, result):
        self.ended_after = list(self.batches)


class TestObserverBatchTiling:
    """Observers see every request exactly once before on_end (tail flush).

    Regression for the trailing-batch gap: with explicit checkpoints ending
    before the trace end (or a batch interval not dividing the length), the
    final partial batch must still be delivered before ``on_end``.
    """

    def _run(self, n_requests, config, batch_interval=None, stream_chunk=None):
        from repro.traffic.stream import TraceStream

        trace = zipf_pair_trace(n_nodes=8, n_requests=n_requests, seed=3)
        from repro.topology import LeafSpineTopology

        algo = RBMA(LeafSpineTopology(n_racks=8), MatchingConfig(b=2, alpha=4), rng=1)
        recorder = _BatchRecorder(batch_interval=batch_interval)
        source = (
            trace if stream_chunk is None
            else TraceStream.from_trace(trace, chunk_size=stream_chunk)
        )
        run_simulation(algo, source, config, observers=[recorder])
        return recorder

    def _assert_tiles(self, recorder, n_requests):
        batches = recorder.batches
        assert batches, "observer saw no batches"
        assert batches[0][0] == 0
        for (_, stop), (start, _) in zip(batches, batches[1:]):
            assert start == stop, f"gap or overlap in batches: {batches}"
        assert batches[-1][1] == n_requests
        assert recorder.ended_after == batches, "on_end fired before the tail flush"

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_early_checkpoints_still_flush_the_tail(self, backend):
        config = SimulationConfig(
            checkpoint_positions=(5, 10), matching_backend=backend
        )
        recorder = self._run(40, config)
        self._assert_tiles(recorder, 40)

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_partial_final_interval_is_delivered(self, backend):
        config = SimulationConfig(checkpoints=3, matching_backend=backend)
        recorder = self._run(40, config, batch_interval=7)
        self._assert_tiles(recorder, 40)

    @pytest.mark.parametrize("chunk", [7, 16, 100])
    def test_streamed_replay_tiles_identically(self, chunk):
        config = SimulationConfig(checkpoint_positions=(5, 10), matching_backend="fast")
        recorder = self._run(40, config, stream_chunk=chunk)
        self._assert_tiles(recorder, 40)
        materialized = self._run(40, config)
        assert recorder.batches[-1][1] == materialized.batches[-1][1] == 40
