"""Facebook-cluster-style synthetic workloads.

The paper uses traces from three Facebook production clusters (Roy et al.,
"Inside the social network's (datacenter) network", SIGCOMM 2015): a database
cluster serving SQL, a web-service cluster, and a Hadoop batch-processing
cluster.  The traces themselves are not redistributable; these generators
synthesise workloads with the structural properties that study (and the
paper's own discussion) attribute to each cluster:

* **Database** — traffic is heavily skewed towards a small set of partner
  racks and strongly bursty in time (cache/DB request-response patterns).
  Modelled as a gravity matrix from Zipf-distributed rack popularity with a
  rack-locality boost, run through a high-repetition temporal model with slow
  working-set drift.
* **Web service** — traffic is spread much more widely (web servers talk to
  many cache followers), with milder skew and weaker temporal structure.
  Modelled as a flatter Zipf gravity matrix with lower repetition.
* **Hadoop** — traffic is job-structured: a job touches a small set of racks
  and produces an intense all-to-all shuffle among them for a while, then the
  working set changes.  Modelled as a sequence of jobs, each generating a
  burst of intra-job traffic, mixed with light background traffic.

All generators take an explicit request count and seed so experiments are
reproducible; the default parameters are chosen so the relative behaviour of
the algorithms matches the paper's figures (the figure benchmarks
``benchmarks/bench_fig1_facebook_database.py`` to
``bench_fig3_facebook_hadoop.py`` run them).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TrafficError
from .base import Trace, TraceMetadata
from .matrix import TrafficMatrix
from .stream import TraceStream, validate_chunk_size
from .temporal import TemporalModel, interleave_bursts

__all__ = [
    "database_trace",
    "database_stream",
    "web_service_trace",
    "web_service_stream",
    "hadoop_trace",
    "hadoop_stream",
]


def _zipf_popularity(n_nodes: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf popularity over racks with randomly assigned ranks."""
    ranks = rng.permutation(n_nodes) + 1
    return ranks.astype(np.float64) ** (-exponent)


def _locality_mask(n_nodes: int, group_size: int, boost: float) -> np.ndarray:
    """Multiplicative boost for pairs inside the same rack group."""
    groups = np.arange(n_nodes) // max(group_size, 1)
    same = (groups[:, None] == groups[None, :]).astype(np.float64)
    return 1.0 + (boost - 1.0) * same


def database_trace(
    n_nodes: int = 100,
    n_requests: int = 350_000,
    seed: Optional[int] = None,
    popularity_exponent: float = 1.1,
    group_size: int = 10,
    locality_boost: float = 6.0,
    repeat_probability: float = 0.75,
    memory: int = 48,
    drift_interval: Optional[int] = None,
) -> Trace:
    """Synthetic Facebook-database-cluster-like workload.

    Strong spatial skew (Zipf rack popularity + rack-group locality) and
    strong temporal burstiness (high repetition probability with periodic
    working-set drift).  ``drift_interval`` defaults to ``n_requests // 14``
    so the number of working-set changes over the trace does not depend on
    the simulated trace length.
    """
    return database_stream(
        n_nodes=n_nodes, n_requests=n_requests, seed=seed,
        popularity_exponent=popularity_exponent, group_size=group_size,
        locality_boost=locality_boost, repeat_probability=repeat_probability,
        memory=memory, drift_interval=drift_interval,
    ).materialize()


def database_stream(
    n_nodes: int = 100,
    n_requests: int = 350_000,
    seed: Optional[int] = None,
    popularity_exponent: float = 1.1,
    group_size: int = 10,
    locality_boost: float = 6.0,
    repeat_probability: float = 0.75,
    memory: int = 48,
    drift_interval: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`database_trace` workload as a chunked stream.

    The popularity/locality matrix is a prefix draw replayed at stream
    start; the temporal model streams via counter-advanced RNG forks, so
    the requests do not depend on the chunk size.
    """
    if drift_interval is None:
        drift_interval = max(500, n_requests // 14)
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="facebook-database",
        n_nodes=n_nodes,
        seed=seed,
        params={
            "n_requests": n_requests,
            "popularity_exponent": popularity_exponent,
            "group_size": group_size,
            "locality_boost": locality_boost,
            "repeat_probability": repeat_probability,
            "memory": memory,
            "drift_interval": drift_interval,
        },
    )

    def factory():
        rng = np.random.default_rng(seed)
        popularity = _zipf_popularity(n_nodes, popularity_exponent, rng)
        matrix = TrafficMatrix.from_node_popularity(
            popularity, _locality_mask(n_nodes, group_size, locality_boost)
        )
        model = TemporalModel(
            repeat_probability=repeat_probability, memory=memory,
            drift_interval=drift_interval,
        )
        for pairs in model.stream(matrix, n_requests, rng, size):
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)


def web_service_trace(
    n_nodes: int = 100,
    n_requests: int = 400_000,
    seed: Optional[int] = None,
    popularity_exponent: float = 0.8,
    repeat_probability: float = 0.55,
    memory: int = 96,
    drift_interval: Optional[int] = None,
) -> Trace:
    """Synthetic Facebook-web-service-cluster-like workload.

    Traffic is spread more widely across racks than in the database cluster
    (flatter popularity), with moderate temporal re-reference — the cluster
    where the paper observes R-BMA, BMA and SO-BMA ending up close together.
    ``drift_interval`` defaults to ``n_requests // 10``.
    """
    return web_service_stream(
        n_nodes=n_nodes, n_requests=n_requests, seed=seed,
        popularity_exponent=popularity_exponent,
        repeat_probability=repeat_probability, memory=memory,
        drift_interval=drift_interval,
    ).materialize()


def web_service_stream(
    n_nodes: int = 100,
    n_requests: int = 400_000,
    seed: Optional[int] = None,
    popularity_exponent: float = 0.8,
    repeat_probability: float = 0.55,
    memory: int = 96,
    drift_interval: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> TraceStream:
    """The :func:`web_service_trace` workload as a chunked stream.

    Built like :func:`database_stream`, without the locality boost.
    """
    if drift_interval is None:
        drift_interval = max(500, n_requests // 10)
    size = validate_chunk_size(chunk_size)
    meta = TraceMetadata(
        name="facebook-web",
        n_nodes=n_nodes,
        seed=seed,
        params={
            "n_requests": n_requests,
            "popularity_exponent": popularity_exponent,
            "repeat_probability": repeat_probability,
            "memory": memory,
            "drift_interval": drift_interval,
        },
    )

    def factory():
        rng = np.random.default_rng(seed)
        popularity = _zipf_popularity(n_nodes, popularity_exponent, rng)
        matrix = TrafficMatrix.from_node_popularity(popularity)
        model = TemporalModel(
            repeat_probability=repeat_probability, memory=memory,
            drift_interval=drift_interval,
        )
        for pairs in model.stream(matrix, n_requests, rng, size):
            yield Trace(pairs[:, 0], pairs[:, 1], meta)

    return TraceStream(factory, meta, n_requests=n_requests, chunk_size=size)


def hadoop_trace(
    n_nodes: int = 100,
    n_requests: int = 185_000,
    seed: Optional[int] = None,
    job_racks: int = 8,
    mean_job_length: Optional[int] = None,
    background_fraction: float = 0.15,
    intra_job_exponent: float = 0.8,
) -> Trace:
    """Synthetic Facebook-Hadoop-cluster-like workload.

    A sequence of batch jobs; each job picks ``job_racks`` racks and produces
    a geometric-length burst of shuffle traffic among them, skewed towards a
    few mapper/reducer pairs.  A light uniform background is mixed in.
    ``mean_job_length`` defaults to ``n_requests // 40`` so the number of
    jobs in the trace does not depend on the simulated trace length.
    """
    if mean_job_length is None:
        mean_job_length = max(50, n_requests // 40)
    if job_racks < 2 or job_racks > n_nodes:
        raise TrafficError(f"job_racks must be in [2, n_nodes], got {job_racks}")
    if not (0.0 <= background_fraction < 1.0):
        raise TrafficError(
            f"background_fraction must be in [0, 1), got {background_fraction}"
        )
    rng = np.random.default_rng(seed)

    job_request_target = int(round(n_requests * (1.0 - background_fraction)))
    bursts: list[np.ndarray] = []
    generated = 0
    while generated < job_request_target:
        length = 1 + int(rng.geometric(1.0 / max(mean_job_length, 1)))
        length = min(length, job_request_target - generated)
        racks = rng.choice(n_nodes, size=job_racks, replace=False)
        # Skewed pair weights inside the job: a few mapper/reducer pairs dominate.
        iu = np.triu_indices(job_racks, k=1)
        n_job_pairs = len(iu[0])
        ranks = rng.permutation(n_job_pairs) + 1
        weights = ranks.astype(np.float64) ** (-intra_job_exponent)
        weights /= weights.sum()
        picks = rng.choice(n_job_pairs, size=length, p=weights)
        burst = np.stack(
            [racks[iu[0][picks]], racks[iu[1][picks]]], axis=1
        ).astype(np.int32)
        bursts.append(burst)
        generated += length
    job_pairs = interleave_bursts(bursts)  # keep job order; intra-job order is the burstiness

    n_background = n_requests - len(job_pairs)
    background = TrafficMatrix.uniform(n_nodes).sample_pairs(n_background, rng)

    # Interleave background uniformly at random positions among job traffic.
    all_pairs = np.concatenate([job_pairs, background], axis=0)
    positions = np.argsort(
        np.concatenate(
            [np.arange(len(job_pairs), dtype=np.float64),
             rng.uniform(0, len(job_pairs), size=n_background)]
        ),
        kind="stable",
    )
    all_pairs = all_pairs[positions]

    meta = TraceMetadata(
        name="facebook-hadoop",
        n_nodes=n_nodes,
        seed=seed,
        params={
            "n_requests": n_requests,
            "job_racks": job_racks,
            "mean_job_length": mean_job_length,
            "background_fraction": background_fraction,
            "intra_job_exponent": intra_job_exponent,
        },
    )
    return Trace(all_pairs[:, 0], all_pairs[:, 1], meta)


def hadoop_stream(chunk_size: Optional[int] = None, **params: object) -> TraceStream:
    """:func:`hadoop_trace` sliced into a chunked stream.

    Hadoop stays a bulk generator — its background interleave is a global
    argsort over the whole trace — so this stream has no memory bound.
    """
    size = validate_chunk_size(chunk_size)
    return TraceStream.from_trace(hadoop_trace(**params), chunk_size=size)
