"""Generic synthetic workloads.

These generators are not tied to a specific cluster in the paper; they are
the controlled workloads used by tests and ablations (uniform = no structure
at all, Zipf = pure spatial skew, hotspot = extreme skew, permutation =
best case for a matching).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TrafficError
from .base import Trace, TraceMetadata
from .matrix import TrafficMatrix
from .stream import TraceStream, chunk_bounds, validate_chunk_size
from .temporal import TemporalModel

__all__ = [
    "uniform_random_trace",
    "uniform_random_stream",
    "zipf_pair_trace",
    "zipf_pair_stream",
    "hotspot_trace",
    "hotspot_stream",
    "permutation_trace",
    "permutation_stream",
]


def uniform_random_trace(
    n_nodes: int, n_requests: int, seed: Optional[int] = None
) -> Trace:
    """Every request picks a uniformly random rack pair — no structure at all."""
    return uniform_random_stream(
        n_nodes=n_nodes, n_requests=n_requests, seed=seed
    ).materialize()


def uniform_random_stream(
    n_nodes: int, n_requests: int, seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`uniform_random_trace` workload as a chunked stream.

    A single persistent generator samples each chunk in sequence, so the
    requests do not depend on the chunk size.
    """
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="uniform", n_nodes=n_nodes, seed=seed, params={"n_requests": n_requests}
    )

    def factory():
        rng = np.random.default_rng(seed)
        matrix = TrafficMatrix.uniform(n_nodes)
        for start, stop in chunk_bounds(n_requests, size):
            pairs = matrix.sample_pairs(stop - start, rng)
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)


def zipf_pair_trace(
    n_nodes: int,
    n_requests: int,
    exponent: float = 1.2,
    repeat_probability: float = 0.0,
    seed: Optional[int] = None,
) -> Trace:
    """Zipf-skewed pair popularity with optional temporal repetition.

    Pair ranks are assigned randomly; the probability of the rank-``r`` pair
    is proportional to ``r^{-exponent}``.
    """
    return zipf_pair_stream(
        n_nodes=n_nodes, n_requests=n_requests, exponent=exponent,
        repeat_probability=repeat_probability, seed=seed,
    ).materialize()


def zipf_pair_stream(
    n_nodes: int,
    n_requests: int,
    exponent: float = 1.2,
    repeat_probability: float = 0.0,
    seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`zipf_pair_trace` workload as a chunked stream.

    The rank permutation is a prefix draw replayed at stream start; the
    temporal model then streams via counter-advanced RNG forks
    (:meth:`~repro.traffic.temporal.TemporalModel.stream`), so the requests
    do not depend on the chunk size.
    """
    if exponent <= 0:
        raise TrafficError(f"zipf exponent must be positive, got {exponent}")
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="zipf", n_nodes=n_nodes, seed=seed,
        params={
            "n_requests": n_requests, "exponent": exponent,
            "repeat_probability": repeat_probability,
        },
    )

    def factory():
        rng = np.random.default_rng(seed)
        n_pairs = n_nodes * (n_nodes - 1) // 2
        ranks = rng.permutation(n_pairs) + 1
        weights = ranks.astype(np.float64) ** (-exponent)
        iu = np.triu_indices(n_nodes, k=1)
        m = np.zeros((n_nodes, n_nodes))
        m[iu] = weights
        matrix = TrafficMatrix(m)
        model = TemporalModel(repeat_probability=repeat_probability, memory=32)
        for pairs in model.stream(matrix, n_requests, rng, size):
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)


def hotspot_trace(
    n_nodes: int,
    n_requests: int,
    n_hot_pairs: int = 8,
    hot_fraction: float = 0.9,
    seed: Optional[int] = None,
) -> Trace:
    """A few hot pairs carry ``hot_fraction`` of the traffic, the rest is uniform.

    The extreme-skew control: with ``n_hot_pairs`` at most ``b·n/2`` a good
    matching algorithm should serve almost all traffic over matching edges.
    """
    return hotspot_stream(
        n_nodes=n_nodes, n_requests=n_requests, n_hot_pairs=n_hot_pairs,
        hot_fraction=hot_fraction, seed=seed,
    ).materialize()


def hotspot_stream(
    n_nodes: int,
    n_requests: int,
    n_hot_pairs: int = 8,
    hot_fraction: float = 0.9,
    seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`hotspot_trace` workload as a chunked stream.

    The hot-pair draw is a prefix replayed at stream start; one persistent
    generator then samples each chunk, so the requests do not depend on the
    chunk size.
    """
    if not (0.0 < hot_fraction < 1.0):
        raise TrafficError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
    max_pairs = n_nodes * (n_nodes - 1) // 2
    if not (1 <= n_hot_pairs <= max_pairs):
        raise TrafficError(f"n_hot_pairs must be in [1, {max_pairs}], got {n_hot_pairs}")
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="hotspot", n_nodes=n_nodes, seed=seed,
        params={
            "n_requests": n_requests, "n_hot_pairs": n_hot_pairs,
            "hot_fraction": hot_fraction,
        },
    )

    def factory():
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(n_nodes, k=1)
        n_pairs = len(iu[0])
        hot_idx = rng.choice(n_pairs, size=n_hot_pairs, replace=False)
        weights = np.full(
            n_pairs,
            (1.0 - hot_fraction) / (n_pairs - n_hot_pairs) if n_pairs > n_hot_pairs else 0.0,
        )
        weights[hot_idx] = hot_fraction / n_hot_pairs
        m = np.zeros((n_nodes, n_nodes))
        m[iu] = weights
        matrix = TrafficMatrix(m)
        for start, stop in chunk_bounds(n_requests, size):
            pairs = matrix.sample_pairs(stop - start, rng)
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)


def permutation_trace(
    n_nodes: int,
    n_requests: int,
    seed: Optional[int] = None,
) -> Trace:
    """Traffic concentrated on a random perfect matching of the racks.

    Every rack talks to exactly one partner, so with ``b >= 1`` the entire
    workload fits into the reconfigurable matching — the best case for any
    demand-aware algorithm and a useful sanity check (routing cost should
    approach 1 per request).
    """
    return permutation_stream(
        n_nodes=n_nodes, n_requests=n_requests, seed=seed
    ).materialize()


def permutation_stream(
    n_nodes: int,
    n_requests: int,
    seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`permutation_trace` workload as a chunked stream.

    The partner permutation is a prefix draw replayed at stream start; one
    persistent generator then picks each chunk's pairs, so the requests do
    not depend on the chunk size.
    """
    if n_nodes < 2:
        raise TrafficError(f"need at least 2 racks, got {n_nodes}")
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="permutation", n_nodes=n_nodes, seed=seed,
        params={"n_requests": n_requests},
    )

    def factory():
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n_nodes)
        partners = [(int(perm[i]), int(perm[i + 1])) for i in range(0, n_nodes - 1, 2)]
        for start, stop in chunk_bounds(n_requests, size):
            idx = rng.integers(0, len(partners), size=stop - start)
            pairs = np.array([partners[i] for i in idx], dtype=np.int32)
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)
