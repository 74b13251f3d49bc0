"""Streaming engine differentials: streamed replay must be bit-identical.

The streaming drive loop (:class:`repro.simulation.engine.StreamingSimulation`)
promises results **bit-identical** to materialized replay no matter where the
chunk boundaries fall.  This tier certifies that promise:

* a differential matrix over every registered algorithm x matching backend x
  chunk size (including sizes that straddle checkpoint positions) on the
  committed golden trace;
* the golden pins themselves replayed under streaming;
* checkpoint planning for unknown-length streams (tail flush, explicit
  overrides that outrun the stream);
* drive-loop misuse (out-of-order segments, double finish, offline
  algorithms, over-delivery);
* the bounded-memory guarantee, demonstrated on a generator-backed stream
  far larger than any single segment;
* the runner integration (``execute_experiment_spec`` /
  ``compare_on_shared_trace`` with ``traffic.streaming``).
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.config import MatchingConfig, SimulationConfig
from repro.core.registry import ALGORITHMS
from repro.core.rng import resolve_rng_mode
from repro.errors import SimulationError
from repro.experiments.specs import ExperimentSpec
from repro.simulation import run_simulation
from repro.simulation.engine import StreamingSimulation
from repro.simulation.runner import ExperimentRunner, execute_experiment_spec
from repro.topology import LeafSpineTopology
from repro.traffic import make_workload_stream
from repro.traffic.base import Trace
from repro.traffic.stream import TraceStream

pytestmark = pytest.mark.stream

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


def _load_golden():
    with open(GOLDEN_DIR / "golden_trace.json") as fh:
        trace_data = json.load(fh)
    with open(GOLDEN_DIR / "golden_pins.json") as fh:
        pin_data = json.load(fh)
    trace = Trace.from_pairs(
        [tuple(p) for p in trace_data["pairs"]], trace_data["n_nodes"], name="golden"
    )
    return trace, pin_data


GOLDEN_TRACE, GOLDEN = _load_golden()
#: Deterministic algorithms (``pins``) and randomized ones (``pins_counter``).
DETERMINISTIC_GOLDEN = sorted(GOLDEN["pins"])
RANDOMIZED_GOLDEN = sorted(GOLDEN["pins_counter"])
GOLDEN_ALGORITHMS = sorted(DETERMINISTIC_GOLDEN + RANDOMIZED_GOLDEN)

#: Chunk sizes chosen to straddle the golden run's checkpoint positions:
#: 1 splits at every request, 7 and 173 land mid-interval around every
#: checkpoint, 799 forces a 1-request tail, 800/4096 cover the
#: exactly-one-segment and bigger-than-trace cases.
CHUNK_SIZES = (7, 173, 799, 4096)


def _build_golden_algorithm(algorithm: str):
    topology = LeafSpineTopology(n_racks=GOLDEN_TRACE.n_nodes)
    return ALGORITHMS.build(
        algorithm,
        topology,
        MatchingConfig(b=GOLDEN["b"], alpha=GOLDEN["alpha"]),
        GOLDEN["algorithm_seed"],
        **GOLDEN["algorithm_params"].get(algorithm, {}),
    )


def _golden_config(backend: str) -> SimulationConfig:
    return SimulationConfig(checkpoints=GOLDEN["checkpoints"], matching_backend=backend)


def assert_bit_identical(streamed, materialized):
    """Every deterministic field of two RunResults must match exactly."""
    assert streamed.algorithm == materialized.algorithm
    assert streamed.n_requests == materialized.n_requests
    assert streamed.total_routing_cost == materialized.total_routing_cost
    assert streamed.total_reconfiguration_cost == materialized.total_reconfiguration_cost
    assert streamed.matched_fraction == materialized.matched_fraction
    assert np.array_equal(streamed.series.requests, materialized.series.requests)
    assert np.array_equal(streamed.series.routing_cost, materialized.series.routing_cost)
    assert np.array_equal(
        streamed.series.reconfiguration_cost, materialized.series.reconfiguration_cost
    )
    assert np.array_equal(
        streamed.series.matched_fraction, materialized.series.matched_fraction
    )
    assert streamed.extra.get("matching_kernel") == materialized.extra.get(
        "matching_kernel"
    )


# --------------------------------------------------------------------------- #
# Differential matrix: every algorithm x backend x chunk size
# --------------------------------------------------------------------------- #

_MATERIALIZED_CACHE: dict = {}


def _materialized_golden(algorithm: str, backend: str):
    key = (algorithm, backend)
    if key not in _MATERIALIZED_CACHE:
        algo = _build_golden_algorithm(algorithm)
        _MATERIALIZED_CACHE[key] = run_simulation(
            algo, GOLDEN_TRACE, _golden_config(backend)
        )
    return _MATERIALIZED_CACHE[key]


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("algorithm", GOLDEN_ALGORITHMS)
def test_streaming_differential_matrix(algorithm, backend, chunk_size):
    """Streamed replay == materialized replay for every registered algorithm."""
    materialized = _materialized_golden(algorithm, backend)
    stream = TraceStream.from_trace(GOLDEN_TRACE, chunk_size=chunk_size)
    streamed = run_simulation(
        _build_golden_algorithm(algorithm), stream, _golden_config(backend)
    )
    assert_bit_identical(streamed, materialized)


def _streamed_pin(algorithm):
    algo = _build_golden_algorithm(algorithm)
    stream = TraceStream.from_trace(GOLDEN_TRACE, chunk_size=173)
    result = run_simulation(algo, stream, _golden_config("fast"))
    return {
        "total_routing_cost": result.total_routing_cost,
        "total_reconfiguration_cost": result.total_reconfiguration_cost,
        "matched_fraction": result.matched_fraction,
        "additions": algo.matching.additions,
        "removals": algo.matching.removals,
        "checkpoint_routing": result.series.routing_cost.tolist(),
    }


@pytest.mark.parametrize("algorithm", DETERMINISTIC_GOLDEN)
def test_golden_pins_hold_under_streaming(algorithm):
    """The committed golden pins are reproduced exactly from a stream."""
    assert _streamed_pin(algorithm) == GOLDEN["pins"][algorithm]


@pytest.mark.parametrize("algorithm", RANDOMIZED_GOLDEN)
def test_counter_golden_pins_hold_under_streaming(algorithm):
    """The randomized algorithms' pins are reproduced exactly from a stream.

    This holds with zero generator-fork bookkeeping: every eviction draw is
    a pure function of (seed, stream, request index, draw index), so where
    the segment boundaries fall cannot matter.
    """
    assert _streamed_pin(algorithm) == GOLDEN["pins_counter"][algorithm]


@pytest.mark.parametrize("rng_mode", ["counter"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("algorithm", RANDOMIZED_GOLDEN)
def test_streaming_randomized_rng_mode_differential(algorithm, rng_mode, chunk_size):
    """Randomized replay is chunk-invariant in the counter RNG mode.

    Counter mode is the only mode randomized algorithms draw in; every
    eviction draw is a pure function of (seed, stream, request index, draw
    index), so where the segment boundaries fall cannot matter.
    """
    assert resolve_rng_mode() == rng_mode
    materialized = run_simulation(
        _build_golden_algorithm(algorithm), GOLDEN_TRACE, _golden_config("fast"),
    )
    streamed = run_simulation(
        _build_golden_algorithm(algorithm),
        TraceStream.from_trace(GOLDEN_TRACE, chunk_size=chunk_size),
        _golden_config("fast"),
    )
    assert_bit_identical(streamed, materialized)


def test_validation_observer_streams_identically():
    """validate=True (reference-forcing observer) keeps streamed == materialized."""
    materialized = run_simulation(
        _build_golden_algorithm("rbma"), GOLDEN_TRACE, _golden_config("fast"),
        validate=True,
    )
    streamed = run_simulation(
        _build_golden_algorithm("rbma"),
        TraceStream.from_trace(GOLDEN_TRACE, chunk_size=97),
        _golden_config("fast"),
        validate=True,
    )
    assert_bit_identical(streamed, materialized)


def test_generator_backed_stream_matches_materialized_run():
    """A chunked generator stream replays identically to its materialized trace."""
    kwargs = dict(n_nodes=12, n_requests=900, seed=23, exponent=1.4)
    from repro.traffic import make_workload

    trace = make_workload("zipf", **kwargs)
    stream = make_workload_stream("zipf", chunk_size=128, **kwargs)
    config = SimulationConfig(checkpoints=6, matching_backend="fast")
    materialized = run_simulation(_build_small_algo(12), trace, config)
    streamed = run_simulation(_build_small_algo(12), stream, config)
    assert_bit_identical(streamed, materialized)


def _build_small_algo(n_racks: int, name: str = "rbma"):
    topology = LeafSpineTopology(n_racks=n_racks)
    return ALGORITHMS.build(name, topology, MatchingConfig(b=2, alpha=4.0), 5)


# --------------------------------------------------------------------------- #
# Checkpoint planning for unknown-length streams
# --------------------------------------------------------------------------- #
class TestUnknownLengthCheckpoints:
    def _segments(self, n_nodes=8, sizes=(20, 30, 13)):
        rng = np.random.default_rng(3)
        offset = 0
        out = []
        for size in sizes:
            pairs = rng.integers(0, n_nodes, size=(size, 2))
            pairs[:, 1] = (pairs[:, 0] + 1 + pairs[:, 1] % (n_nodes - 1)) % n_nodes
            seg = Trace(
                pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32),
                Trace.from_pairs([(0, 1)], n_nodes).metadata,
            )
            out.append(seg)
            offset += size
        return out

    def test_tail_flush_records_single_checkpoint(self):
        segments = self._segments()
        n = sum(len(s) for s in segments)
        stream = TraceStream(segments, segments[0].metadata, n_requests=None)
        result = run_simulation(
            _build_small_algo(8), stream, SimulationConfig(checkpoints=10)
        )
        # Length was unknown: even spacing is impossible, so exactly one
        # checkpoint is recorded at exhaustion.
        assert result.n_requests == n
        assert result.series.requests.tolist() == [n]
        assert result.series.routing_cost[-1] == result.total_routing_cost

    def test_explicit_positions_survive_unknown_length(self):
        segments = self._segments()
        stream = TraceStream(segments, segments[0].metadata, n_requests=None)
        config = SimulationConfig(checkpoint_positions=(10, 45, 63))
        result = run_simulation(_build_small_algo(8), stream, config)
        assert result.series.requests.tolist() == [10, 45, 63]

    def test_explicit_positions_outrunning_stream_fail(self):
        segments = self._segments()
        stream = TraceStream(segments, segments[0].metadata, n_requests=None)
        config = SimulationConfig(checkpoint_positions=(10, 500))
        with pytest.raises(SimulationError, match=r"stream delivered only"):
            run_simulation(_build_small_algo(8), stream, config)


# --------------------------------------------------------------------------- #
# Drive-loop misuse
# --------------------------------------------------------------------------- #
class TestStreamingSimulationMisuse:
    def _trace(self, n=40, n_nodes=8):
        rng = np.random.default_rng(7)
        pairs = [(int(a), int((a + 1 + b) % n_nodes)) for a, b in
                 zip(rng.integers(0, n_nodes, n), rng.integers(0, n_nodes - 1, n))]
        return Trace.from_pairs(pairs, n_nodes)

    def test_out_of_order_segment_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata)
        drive.feed(trace[:10])
        with pytest.raises(SimulationError, match="feed contiguous segments in order"):
            drive.feed(trace[20:30])

    def test_double_finish_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata)
        drive.feed(trace[:])
        drive.finish()
        with pytest.raises(SimulationError, match="already called"):
            drive.finish()

    def test_feed_after_finish_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata)
        drive.feed(trace[:])
        drive.finish()
        with pytest.raises(SimulationError, match="already called"):
            drive.feed(trace[:10].with_offset(40))

    def test_empty_stream_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata)
        with pytest.raises(SimulationError, match="empty trace"):
            drive.finish()

    def test_overdelivery_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata, n_requests=30)
        with pytest.raises(SimulationError, match="delivered at least 40"):
            drive.feed(trace[:])

    def test_underdelivery_rejected(self):
        trace = self._trace()
        drive = StreamingSimulation(_build_small_algo(8), trace.metadata, n_requests=60)
        drive.feed(trace[:])
        with pytest.raises(SimulationError, match="declared 60 requests but delivered 40"):
            drive.finish()

    def test_offline_algorithm_rejected(self):
        trace = self._trace()
        topology = LeafSpineTopology(n_racks=8)
        offline = ALGORITHMS.build(
            "so-bma", topology, MatchingConfig(b=2, alpha=4.0), 5
        )
        assert offline.requires_full_trace
        with pytest.raises(SimulationError, match="requires the full trace"):
            StreamingSimulation(offline, trace.metadata)

    def test_run_simulation_materializes_for_offline_algorithms(self):
        """run_simulation transparently materializes streams for offline fits."""
        trace = self._trace()
        topology = LeafSpineTopology(n_racks=8)
        config = SimulationConfig(checkpoints=4)
        materialized = run_simulation(
            ALGORITHMS.build("so-bma", topology, MatchingConfig(b=2, alpha=4.0), 5),
            trace, config,
        )
        streamed = run_simulation(
            ALGORITHMS.build("so-bma", topology, MatchingConfig(b=2, alpha=4.0), 5),
            TraceStream.from_trace(trace, chunk_size=7), config,
        )
        assert_bit_identical(streamed, materialized)


# --------------------------------------------------------------------------- #
# Bounded memory
# --------------------------------------------------------------------------- #
def test_streaming_memory_is_bounded_by_chunk_size():
    """Replaying a generator-backed stream never holds the full trace.

    The stream is far larger than any single segment; the drive's peak
    traced allocation must stay well below the materialized trace's array
    footprint (which the materialized path cannot avoid).
    """
    n_requests, chunk_size = 60_000, 1_024
    kwargs = dict(n_nodes=16, n_requests=n_requests, seed=9)
    config = SimulationConfig(checkpoints=5, matching_backend="fast")

    stream = make_workload_stream("uniform", chunk_size=chunk_size, **kwargs)
    algo = _build_small_algo(16, "greedy")
    tracemalloc.start()
    tracemalloc.reset_peak()
    run_simulation(algo, stream, config)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # src+dst int32 arrays alone; the materialized path additionally holds
    # per-batch views and float64 timestamps on top of this floor.
    full_trace_bytes = n_requests * 2 * 4
    assert stream_peak < full_trace_bytes / 2, (
        f"streaming drive peaked at {stream_peak} traced bytes, expected well "
        f"below the {full_trace_bytes}-byte materialized trace footprint"
    )


# --------------------------------------------------------------------------- #
# Runner integration
# --------------------------------------------------------------------------- #
def _spec(algorithm="rbma", streaming=False, chunk_size=None, seed=13):
    return ExperimentSpec(
        algorithm={"name": algorithm, "b": 2, "alpha": 4.0},
        traffic={"name": "zipf",
                 "params": {"n_nodes": 12, "n_requests": 600, "exponent": 1.3},
                 "streaming": streaming, "chunk_size": chunk_size},
        topology={"name": "leaf-spine", "params": {"n_racks": 12}},
        simulation={"checkpoints": 5},
        seed=seed,
    )


class TestRunnerStreaming:
    def test_execute_experiment_spec_streaming_matches_materialized(self):
        materialized = execute_experiment_spec(_spec(), store=False)
        streamed = execute_experiment_spec(
            _spec(streaming=True, chunk_size=128), store=False
        )
        assert_bit_identical(streamed, materialized)

    def test_streaming_spec_shares_store_fingerprint(self):
        """Streamed and materialized runs are the same store cell."""
        spec = _spec()
        assert spec.canonical_dict() == _spec(
            streaming=True, chunk_size=128
        ).canonical_dict()

    def test_compare_on_shared_trace_streaming_matches_materialized(self):
        algorithms = ["rbma", "greedy", "so-bma"]
        runner = ExperimentRunner(repetitions=2, base_seed=7, store=False)
        materialized = runner.compare_on_shared_trace(
            [_spec(a) for a in algorithms]
        )
        streamed = runner.compare_on_shared_trace(
            [_spec(a, streaming=True, chunk_size=150) for a in algorithms]
        )
        assert set(streamed) == set(materialized)
        for key, agg in materialized.items():
            other = streamed[key]
            assert other.routing_cost_mean == agg.routing_cost_mean
            assert other.matched_fraction_mean == agg.matched_fraction_mean
            assert np.array_equal(other.series.requests, agg.series.requests)
            assert np.array_equal(other.series.routing_cost, agg.series.routing_cost)
