"""Microsoft (ProjecToR-style) synthetic workload.

The paper's Microsoft dataset "is simply a probability distribution,
describing the rack-to-rack communication (a traffic matrix)"; traces are
generated by sampling from it i.i.d., so they have *no temporal structure by
design* but *significant spatial skew*.  We reproduce exactly that: a heavily
skewed synthetic traffic matrix (log-normal pair weights concentrated on a
small fraction of pairs, as reported for the ProjecToR measurements) sampled
i.i.d.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TrafficError
from .base import Trace, TraceMetadata
from .matrix import TrafficMatrix
from .stream import TraceStream, chunk_bounds, validate_chunk_size

__all__ = ["projector_style_matrix", "microsoft_trace", "microsoft_stream"]


def projector_style_matrix(
    n_nodes: int = 50,
    sigma: float = 2.2,
    active_fraction: float = 0.35,
    seed: Optional[int] = None,
) -> TrafficMatrix:
    """Heavily skewed rack-to-rack probability matrix.

    Parameters
    ----------
    n_nodes:
        Number of racks (the paper uses 50 for this dataset).
    sigma:
        Log-normal shape parameter of pair weights; larger means more skew.
    active_fraction:
        Fraction of rack pairs that exchange any traffic at all (sparse,
        as in the ProjecToR measurements).
    seed:
        Seed for the matrix construction.
    """
    if not (0.0 < active_fraction <= 1.0):
        raise TrafficError(f"active_fraction must be in (0, 1], got {active_fraction}")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n_nodes, k=1)
    n_pairs = len(iu[0])
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=n_pairs)
    active = rng.random(n_pairs) < active_fraction
    if not active.any():
        active[rng.integers(n_pairs)] = True
    weights = weights * active
    m = np.zeros((n_nodes, n_nodes))
    m[iu] = weights
    return TrafficMatrix(m)


def microsoft_trace(
    n_nodes: int = 50,
    n_requests: int = 1_750_000,
    seed: Optional[int] = None,
    sigma: float = 2.2,
    active_fraction: float = 0.35,
) -> Trace:
    """I.i.d. samples from a ProjecToR-style skewed traffic matrix."""
    return microsoft_stream(
        n_nodes=n_nodes, n_requests=n_requests, seed=seed, sigma=sigma,
        active_fraction=active_fraction,
    ).materialize()


def microsoft_stream(
    n_nodes: int = 50,
    n_requests: int = 1_750_000,
    seed: Optional[int] = None,
    sigma: float = 2.2,
    active_fraction: float = 0.35,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`microsoft_trace` workload as a chunked stream.

    The matrix is rebuilt at stream start from its own seeded generator;
    sampling then consumes one persistent generator chunk by chunk, so the
    requests do not depend on the chunk size.
    """
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="microsoft",
        n_nodes=n_nodes,
        seed=seed,
        params={
            "n_requests": n_requests,
            "sigma": sigma,
            "active_fraction": active_fraction,
        },
    )

    def factory():
        rng = np.random.default_rng(seed)
        matrix = projector_style_matrix(
            n_nodes=n_nodes, sigma=sigma, active_fraction=active_fraction, seed=seed
        )
        for start, stop in chunk_bounds(n_requests, size):
            pairs = matrix.sample_pairs(stop - start, rng)
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)
