"""Tests for the temporal model, trace statistics, IO, and the workload registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrafficError
from repro.traffic import (
    TemporalModel,
    Trace,
    TraceMetadata,
    TrafficMatrix,
    available_workloads,
    compute_trace_statistics,
    interleave_bursts,
    load_trace_csv,
    load_trace_jsonl,
    make_workload,
    save_trace_csv,
    save_trace_jsonl,
    uniform_random_trace,
)


def _pairs(model, matrix, n_requests, rng):
    """All of ``model.stream``'s chunks as one ``(n_requests, 2)`` array."""
    return np.concatenate(list(model.stream(matrix, n_requests, rng, 64)))


class TestTemporalModel:
    def test_zero_repeat_is_iid(self):
        model = TemporalModel(repeat_probability=0.0)
        matrix = TrafficMatrix.uniform(8)
        pairs = _pairs(model, matrix, 200, np.random.default_rng(0))
        assert pairs.shape == (200, 2)

    def test_high_repeat_increases_rereference(self):
        matrix = TrafficMatrix.uniform(24)
        rng = np.random.default_rng(1)
        bursty = _pairs(TemporalModel(repeat_probability=0.8, memory=16), matrix, 3000, rng)
        rng = np.random.default_rng(1)
        iid = _pairs(TemporalModel(repeat_probability=0.0), matrix, 3000, rng)
        meta = TraceMetadata("x", 24)
        bursty_rate = compute_trace_statistics(Trace(bursty[:, 0], bursty[:, 1], meta)).rereference_rate
        iid_rate = compute_trace_statistics(Trace(iid[:, 0], iid[:, 1], meta)).rereference_rate
        assert bursty_rate > iid_rate + 0.2

    def test_validation(self):
        with pytest.raises(TrafficError):
            TemporalModel(repeat_probability=1.5)
        with pytest.raises(TrafficError):
            TemporalModel(memory=0)
        with pytest.raises(TrafficError):
            TemporalModel(drift_interval=-1)

    def test_zero_requests(self):
        model = TemporalModel()
        out = model.stream(TrafficMatrix.uniform(4), 0, np.random.default_rng(0), 64)
        assert list(out) == []

    def test_interleave_bursts(self):
        a = np.array([[0, 1], [0, 1]])
        b = np.array([[2, 3]])
        combined = interleave_bursts([a, b])
        assert combined.shape == (3, 2)

    def test_interleave_rejects_bad_shape(self):
        with pytest.raises(TrafficError):
            interleave_bursts([np.array([[0, 1, 2]])])

    def test_interleave_empty(self):
        assert interleave_bursts([]).shape == (0, 2)


class TestTraceStatistics:
    def test_empty_trace_rejected(self):
        trace = Trace([], [], TraceMetadata("e", 4))
        with pytest.raises(TrafficError):
            compute_trace_statistics(trace)

    def test_single_pair_trace(self):
        trace = Trace.from_pairs([(0, 1)] * 50, n_nodes=4)
        stats = compute_trace_statistics(trace)
        assert stats.n_distinct_pairs == 1
        assert stats.rereference_rate == pytest.approx(49 / 50)
        assert stats.top1pct_share == 1.0

    def test_to_dict_round_trip_keys(self):
        trace = uniform_random_trace(n_nodes=8, n_requests=100, seed=0)
        d = compute_trace_statistics(trace).to_dict()
        assert set(d) >= {"n_requests", "top1pct_share", "rereference_rate"}

    def test_window_validation(self):
        trace = uniform_random_trace(n_nodes=8, n_requests=100, seed=0)
        with pytest.raises(TrafficError):
            compute_trace_statistics(trace, window=0)


class TestTraceIO:
    def test_csv_round_trip(self, tmp_path):
        trace = uniform_random_trace(n_nodes=8, n_requests=50, seed=1)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        np.testing.assert_array_equal(trace.sources, loaded.sources)
        np.testing.assert_array_equal(trace.destinations, loaded.destinations)
        assert loaded.name == trace.name
        assert loaded.n_nodes == trace.n_nodes

    def test_jsonl_round_trip(self, tmp_path):
        trace = uniform_random_trace(n_nodes=6, n_requests=30, seed=2)
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        np.testing.assert_array_equal(trace.sources, loaded.sources)
        assert loaded.metadata.params == dict(trace.metadata.params)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TrafficError):
            load_trace_csv(tmp_path / "nope.csv")
        with pytest.raises(TrafficError):
            load_trace_jsonl(tmp_path / "nope.jsonl")

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\n0,1\n")
        with pytest.raises(TrafficError):
            load_trace_csv(path)


class TestWorkloadRegistry:
    def test_lists_paper_workloads(self):
        names = available_workloads()
        for expected in ("facebook-database", "facebook-web", "facebook-hadoop",
                         "microsoft", "uniform", "zipf", "hotspot", "permutation"):
            assert expected in names

    def test_make_workload(self):
        trace = make_workload("uniform", n_nodes=8, n_requests=20, seed=0)
        assert len(trace) == 20

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            make_workload("not-a-workload")
