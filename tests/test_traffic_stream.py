"""Tests for the streaming trace protocol (repro.traffic.stream and friends).

The load-bearing guarantee is *chunk independence*: for every registered
workload and any chunk size, the concatenated stream segments equal the
materialized trace (the default-chunk stream) array-for-array, and the
incremental statistics accumulator gives the same statistics float-for-float.
``tests/test_traffic_golden.py`` pins those traces against digests taken
from independent bulk generators; the engine-level counterpart lives in
``tests/test_streaming_engine.py``.
"""

from collections import deque

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.traffic import (
    DEFAULT_CHUNK_SIZE,
    TemporalModel,
    Trace,
    TraceStream,
    TraceStatisticsAccumulator,
    TrafficMatrix,
    available_workloads,
    compute_trace_statistics,
    fork_generator,
    load_trace_csv,
    load_trace_jsonl,
    make_workload,
    make_workload_stream,
    save_trace_csv,
    save_trace_jsonl,
    stream_trace_csv,
    stream_trace_jsonl,
    uniform_random_trace,
    zipf_pair_trace,
)
from repro.traffic.base import TraceMetadata
from repro.traffic.stream import chunk_bounds, validate_chunk_size

#: Workload name -> generator kwargs, covering every registered family
#: (facebook-hadoop is generated whole and sliced by its stream factory).
WORKLOADS = {
    "uniform": dict(n_nodes=12, n_requests=700),
    "zipf": dict(n_nodes=12, n_requests=700),
    "hotspot": dict(n_nodes=12, n_requests=700),
    "permutation": dict(n_nodes=12, n_requests=700),
    "facebook-database": dict(n_nodes=12, n_requests=700),
    "facebook-web": dict(n_nodes=12, n_requests=700),
    "facebook-hadoop": dict(n_nodes=12, n_requests=700),
    "microsoft": dict(n_nodes=12, n_requests=700),
}

CHUNK_SIZES = (1, 7, 128, 699, 700, 5000)


def _concat(stream):
    segments = list(stream)
    return (
        np.concatenate([s.sources for s in segments]),
        np.concatenate([s.destinations for s in segments]),
        segments,
    )


class TestFortGenerator:
    def test_advance_equals_consumption(self):
        base = np.random.default_rng(42)
        burned = np.random.default_rng(42)
        burned.random(10)
        fork = fork_generator(np.random.default_rng(42), 10)
        assert fork.random(5).tolist() == burned.random(5).tolist()
        # The source is left untouched.
        assert base.random(1).tolist() == np.random.default_rng(42).random(1).tolist()

    def test_requires_pcg64(self):
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TrafficError, match="PCG64"):
            fork_generator(rng, 3)


def _reference_temporal_stream(model, matrix, n_requests, rng, chunk_size):
    """The per-request history loop ``TemporalModel.stream`` replaced."""
    if n_requests == 0:
        return
    fresh_rng = fork_generator(rng, 0)
    flags_rng = fork_generator(rng, n_requests)
    picks_rng = fork_generator(rng, 2 * n_requests)
    history = deque(maxlen=model.memory)
    for start in range(0, n_requests, chunk_size):
        stop = min(start + chunk_size, n_requests)
        k = stop - start
        fresh = matrix.sample_pairs(k, fresh_rng)
        repeat_flags = flags_rng.random(k) < model.repeat_probability
        repeat_picks = picks_rng.integers(0, model.memory, size=k)
        out = np.empty((k, 2), dtype=np.int32)
        for j in range(k):
            i = start + j
            if model.drift_interval and i > 0 and i % model.drift_interval == 0:
                history.clear()
            if repeat_flags[j] and history:
                pair = history[repeat_picks[j] % len(history)]
            else:
                pair = (int(fresh[j, 0]), int(fresh[j, 1]))
            out[j, 0], out[j, 1] = pair
            history.append(pair)
        yield out


@pytest.mark.stream
class TestTemporalStreamAgainstLoop:
    """The vectorised repeat resolution equals the per-request loop, chunk by chunk."""

    MATRIX = TrafficMatrix.from_node_popularity(np.linspace(1.0, 6.0, 9))

    @pytest.mark.parametrize("n_requests", [0, 1, 50, 3001])
    @pytest.mark.parametrize("drift_interval", [0, 7, 500])
    @pytest.mark.parametrize("memory", [1, 3, 96])
    @pytest.mark.parametrize("repeat_probability", [0.0, 0.55, 0.97])
    def test_chunks_equal_the_reference(self, repeat_probability, memory,
                                        drift_interval, n_requests):
        model = TemporalModel(repeat_probability, memory, drift_interval)
        seed = 1000 * memory + drift_interval
        for chunk_size in (1, 7, 64, 4096):
            got = list(model.stream(self.MATRIX, n_requests,
                                    np.random.default_rng(seed), chunk_size))
            want = list(_reference_temporal_stream(
                model, self.MATRIX, n_requests, np.random.default_rng(seed), chunk_size))
            assert len(got) == len(want), chunk_size
            for chunk, expected in zip(got, want):
                assert chunk.dtype == np.int32
                assert chunk.shape == expected.shape
                np.testing.assert_array_equal(chunk, expected)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_stream_matches_bulk(workload, chunk_size):
    """Streamed segments concatenate to the materialized trace, any chunk size."""
    kwargs = dict(WORKLOADS[workload], seed=17)
    bulk = make_workload(workload, **kwargs)
    stream = make_workload_stream(workload, chunk_size=chunk_size, **kwargs)
    src, dst, segments = _concat(stream)
    assert np.array_equal(src, bulk.sources)
    assert np.array_equal(dst, bulk.destinations)
    assert stream.n_requests == len(bulk)
    assert stream.metadata.name == bulk.metadata.name
    assert stream.metadata.n_nodes == bulk.metadata.n_nodes
    assert stream.metadata.seed == bulk.metadata.seed
    assert stream.metadata.params == bulk.metadata.params
    # Segment sizes honour the chunk bound; offsets tile the trace.
    assert all(len(s) <= chunk_size for s in segments)
    position = 0
    for segment in segments:
        assert segment.offset == position
        position += len(segment)


@pytest.mark.parametrize("workload", sorted(available_workloads()))
def test_zero_requests_give_an_empty_trace(workload):
    """Every workload at n_requests=0: no segment, an empty trace, same metadata."""
    kwargs = dict(n_nodes=8, n_requests=0, seed=3)
    stream = make_workload_stream(workload, **kwargs)
    assert list(stream) == []
    trace = make_workload(workload, **kwargs)
    assert len(trace) == 0
    assert trace.metadata == stream.metadata


def test_stream_segment_timestamps_are_global():
    stream = make_workload_stream("zipf", chunk_size=100, n_nodes=8,
                                  n_requests=350, seed=5)
    timestamps = [r.timestamp for segment in stream for r in segment.requests()]
    assert timestamps == [float(i) for i in range(350)]


def test_generator_streams_are_reiterable():
    stream = make_workload_stream("uniform", chunk_size=64, n_nodes=8,
                                  n_requests=200, seed=9)
    first = _concat(stream)[:2]
    second = _concat(stream)[:2]
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_plain_iterable_stream_is_single_use():
    trace = uniform_random_trace(n_nodes=6, n_requests=30, seed=1)
    stream = TraceStream([trace[:15], trace[15:]], trace.metadata, n_requests=30)
    assert sum(len(s) for s in stream) == 30
    with pytest.raises(TrafficError, match="already been consumed"):
        list(stream)


def test_declared_length_mismatch_rejected():
    trace = uniform_random_trace(n_nodes=6, n_requests=30, seed=1)
    stream = TraceStream([trace[:15]], trace.metadata, n_requests=30)
    with pytest.raises(TrafficError, match="declared 30"):
        list(stream)


def test_from_trace_roundtrip_and_empty_segments_skipped():
    trace = zipf_pair_trace(n_nodes=8, n_requests=100, seed=2)
    stream = TraceStream.from_trace(trace, chunk_size=33)
    assert np.array_equal(stream.materialize().sources, trace.sources)
    # Empty segments are dropped, not yielded.
    padded = TraceStream(
        [trace[:50], trace[50:50], trace[50:]], trace.metadata, n_requests=100
    )
    assert [len(s) for s in padded] == [50, 50]


def test_chunk_size_validation():
    assert validate_chunk_size(None) == DEFAULT_CHUNK_SIZE
    assert validate_chunk_size(5) == 5
    for bad in (0, -3, 2.5):
        with pytest.raises(TrafficError, match="chunk_size"):
            validate_chunk_size(bad)
    assert list(chunk_bounds(10, 4)) == [(0, 4), (4, 8), (8, 10)]


class TestTee:
    def _stream(self, n_requests=120, chunk_size=30):
        return make_workload_stream("uniform", chunk_size=chunk_size,
                                    n_nodes=8, n_requests=n_requests, seed=4)

    def test_children_see_identical_segments(self):
        stream = self._stream()
        bulk = stream.materialize()
        children = stream.tee(3)
        iters = [iter(c) for c in children]
        collected = [[] for _ in iters]
        for segments in zip(*iters):
            for bucket, segment in zip(collected, segments):
                bucket.append(segment)
        for bucket in collected:
            assert np.array_equal(
                np.concatenate([s.sources for s in bucket]), bulk.sources
            )
            assert [s.offset for s in bucket] == [0, 30, 60, 90]

    def test_lookahead_bound_enforced(self):
        children = self._stream().tee(2, max_lookahead=2)
        fast = iter(children[0])
        next(fast), next(fast)
        with pytest.raises(TrafficError, match="lockstep"):
            next(fast)

    def test_bad_arguments_rejected(self):
        stream = self._stream()
        with pytest.raises(TrafficError, match="n >= 1"):
            stream.tee(0)
        with pytest.raises(TrafficError, match="max_lookahead"):
            stream.tee(2, max_lookahead=0)


class TestStatisticsAccumulator:
    @pytest.mark.parametrize("workload", ["zipf", "facebook-database", "uniform"])
    @pytest.mark.parametrize("chunk_size", (1, 37, 250, 1000))
    def test_bit_identical_to_bulk(self, workload, chunk_size):
        bulk = make_workload(workload, n_nodes=10, n_requests=600, seed=6)
        stream = make_workload_stream(workload, chunk_size=chunk_size,
                                      n_nodes=10, n_requests=600, seed=6)
        assert compute_trace_statistics(stream) == compute_trace_statistics(bulk)

    def test_manual_updates(self):
        trace = zipf_pair_trace(n_nodes=8, n_requests=200, seed=3)
        acc = TraceStatisticsAccumulator(trace.n_nodes)
        acc.update(trace[:77])
        acc.update(trace[77:])
        assert acc.n_requests == 200
        assert acc.finalize() == compute_trace_statistics(trace)

    def test_empty_rejected(self):
        acc = TraceStatisticsAccumulator(8)
        with pytest.raises(TrafficError, match="empty"):
            acc.finalize()
        with pytest.raises(TrafficError, match="racks"):
            TraceStatisticsAccumulator(1)
        with pytest.raises(TrafficError, match="window"):
            TraceStatisticsAccumulator(8, window=0)


class TestStreamIO:
    def _trace(self):
        return zipf_pair_trace(n_nodes=9, n_requests=250, seed=8)

    @pytest.mark.parametrize("chunk_size", (1, 64, 1000))
    def test_csv_stream_matches_load(self, tmp_path, chunk_size):
        trace = self._trace()
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        stream = stream_trace_csv(path, chunk_size=chunk_size)
        src, dst, _ = _concat(stream)
        assert np.array_equal(src, loaded.sources)
        assert np.array_equal(dst, loaded.destinations)
        assert stream.name == loaded.name
        # Re-iterable: the factory re-opens the file.
        assert np.array_equal(_concat(stream)[0], loaded.sources)

    @pytest.mark.parametrize("chunk_size", (1, 64, 1000))
    def test_jsonl_stream_matches_load(self, tmp_path, chunk_size):
        trace = self._trace()
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        stream = stream_trace_jsonl(path, chunk_size=chunk_size)
        src, dst, _ = _concat(stream)
        assert np.array_equal(src, loaded.sources)
        assert np.array_equal(dst, loaded.destinations)

    def test_numpy_scalar_metadata_roundtrips(self, tmp_path):
        """Satellite: headers funnel through the canonical path, so numpy
        scalars in seed/params serialise instead of crashing json.dumps."""
        trace = self._trace()
        doctored = Trace(
            trace.sources,
            trace.destinations,
            TraceMetadata(
                name="doctored",
                n_nodes=np.int64(trace.n_nodes),
                seed=np.int64(8),
                params={"exponent": np.float64(1.2), "count": np.int32(250)},
            ),
        )
        for save, load, name in (
            (save_trace_csv, load_trace_csv, "np.csv"),
            (save_trace_jsonl, load_trace_jsonl, "np.jsonl"),
        ):
            path = tmp_path / name
            save(doctored, path)
            loaded = load(path)
            assert loaded.metadata.seed == 8
            assert loaded.metadata.params == {"exponent": 1.2, "count": 250}

    def test_unserialisable_metadata_rejected(self, tmp_path):
        trace = self._trace()
        bad = Trace(
            trace.sources, trace.destinations,
            TraceMetadata(name="bad", n_nodes=trace.n_nodes, seed=None,
                          params={"matrix": object()}),
        )
        with pytest.raises(TrafficError, match="not serialisable"):
            save_trace_csv(bad, tmp_path / "bad.csv")

    def test_ragged_csv_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        save_trace_csv(self._trace(), path)
        lines = path.read_text().splitlines()
        lines[5] = "1,2,3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrafficError, match=r"line 6.*expected 2 columns"):
            load_trace_csv(path)
        with pytest.raises(TrafficError, match=r"line 6"):
            list(stream_trace_csv(path, chunk_size=2))

    def test_non_integer_csv_row_names_line(self, tmp_path):
        path = tmp_path / "float.csv"
        save_trace_csv(self._trace(), path)
        lines = path.read_text().splitlines()
        lines[7] = "1,2.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrafficError, match=r"line 8.*malformed request row"):
            load_trace_csv(path)

    def test_malformed_jsonl_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_trace_jsonl(self._trace(), path)
        lines = path.read_text().splitlines()
        lines[4] = '{"i": 3, "src": 1}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrafficError, match=r"line 5.*malformed request record"):
            load_trace_jsonl(path)

    @pytest.mark.parametrize(
        "reader", [stream_trace_jsonl, load_trace_jsonl], ids=["stream", "load"]
    )
    def test_jsonl_stream_requires_leading_metadata(self, tmp_path, reader):
        """Both readers share one contract: the metadata line comes first."""
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"i": 0, "src": 1, "dst": 2}\n')
        trailing = tmp_path / "trailing.jsonl"
        save_trace_jsonl(self._trace(), trailing)
        lines = trailing.read_text().splitlines()
        trailing.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        for path in (headless, trailing):
            with pytest.raises(TrafficError, match="must start with the metadata line"):
                reader(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TrafficError, match="does not exist"):
            stream_trace_csv(tmp_path / "nope.csv")
        with pytest.raises(TrafficError, match="does not exist"):
            stream_trace_jsonl(tmp_path / "nope.jsonl")
