"""Temporal structure models.

Datacenter traces differ not only in *which* pairs communicate (spatial
structure) but also in *when*: requests to the same pair arrive in bursts and
the working set of hot pairs drifts slowly (Avin et al., SIGMETRICS 2020).
The paper relies on this distinction — the Microsoft trace is i.i.d. by
construction ("does not contain any temporal structure"), while the Facebook
traces are bursty — and it is exactly what makes online algorithms
competitive with the static offline matching on the Facebook workloads.

:class:`TemporalModel` converts a spatial :class:`~repro.traffic.matrix.TrafficMatrix`
into a request sequence with tunable burstiness: with probability
``repeat_probability`` the next request repeats a pair drawn from a bounded
recent-history window, otherwise it is a fresh i.i.d. sample from the matrix.
``repeat_probability = 0`` recovers the i.i.d. model.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..errors import TrafficError
from .matrix import TrafficMatrix
from .stream import fork_generator

__all__ = ["TemporalModel", "interleave_bursts"]


class TemporalModel:
    """Burst/repetition model layered over a spatial traffic matrix.

    Parameters
    ----------
    repeat_probability:
        Probability that a request re-references a recently used pair instead
        of being drawn fresh from the matrix.
    memory:
        Size of the recent-history window from which repeated pairs are drawn.
    drift_interval:
        If positive, every ``drift_interval`` requests the recent-history
        window is cleared, modelling working-set changes (e.g. a new job).
    """

    def __init__(
        self,
        repeat_probability: float = 0.0,
        memory: int = 64,
        drift_interval: int = 0,
    ):
        if not (0.0 <= repeat_probability < 1.0):
            raise TrafficError(
                f"repeat_probability must be in [0, 1), got {repeat_probability}"
            )
        if memory < 1:
            raise TrafficError(f"memory must be >= 1, got {memory}")
        if drift_interval < 0:
            raise TrafficError(f"drift_interval must be >= 0, got {drift_interval}")
        self.repeat_probability = float(repeat_probability)
        self.memory = int(memory)
        self.drift_interval = int(drift_interval)

    def stream(
        self,
        matrix: TrafficMatrix,
        n_requests: int,
        rng: np.random.Generator,
        chunk_size: int,
    ) -> "Iterator[np.ndarray]":
        """Yield ``(k, 2)`` pair-array chunks covering ``n_requests`` requests.

        The draws are laid out as three phases of one generator's bitstream:
        ``n_requests`` doubles for the fresh samples, then ``n_requests``
        doubles for the repeat flags, then the repeat picks.  Each phase is
        read from its own counter-advanced fork of ``rng``
        (:func:`~repro.traffic.stream.fork_generator` at offsets 0, ``n``,
        ``2n``), so every chunk draws the same values for any chunk size.
        ``rng`` itself is left untouched; only the recent-history window
        and the global request index carry state across chunks.

        Each chunk is resolved without a per-request loop: a repeat points
        at the request it copies, and pointer jumping follows every chain
        of repeats back to the fresh sample (or carried pair) it started
        from.
        """
        if n_requests < 0:
            raise TrafficError(f"n_requests must be non-negative, got {n_requests}")
        if chunk_size < 1:
            raise TrafficError(f"chunk_size must be >= 1, got {chunk_size}")
        if n_requests == 0:
            return
        fresh_rng = fork_generator(rng, 0)
        flags_rng = fork_generator(rng, n_requests)
        picks_rng = fork_generator(rng, 2 * n_requests)
        # The recent-history window since the last drift clear, oldest first.
        history = np.zeros((0, 2), dtype=np.int32)
        for start in range(0, n_requests, chunk_size):
            stop = min(start + chunk_size, n_requests)
            k = stop - start
            fresh = matrix.sample_pairs(k, fresh_rng)
            repeat_flags = flags_rng.random(k) < self.repeat_probability
            repeat_picks = picks_rng.integers(0, self.memory, size=k)
            # Virtual index x covers the carried history then the chunk:
            # request i = start + j sits at x = h + j.  Request i sees the
            # last ``window = min(memory, i - cleared)`` requests, so a
            # repeat copies request ``i - window + pick % window``.
            h = len(history)
            i = np.arange(start, stop)
            cleared = i - i % self.drift_interval if self.drift_interval else 0
            window = np.minimum(self.memory, i - cleared)
            repeat = repeat_flags & (window > 0)
            parent = np.arange(h + k)
            source = i - window + repeat_picks % np.maximum(window, 1)
            parent[h:][repeat] = (source - (start - h))[repeat]
            # A repeat may copy a repeat: jump pointers to the first request
            # of each chain, which is a fresh sample or a carried pair.
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
            virtual = np.concatenate([history, fresh])[parent]
            # The last request joins its own window for the next chunk.
            history = virtual[len(virtual) - min(self.memory, int(window[-1]) + 1):].copy()
            yield virtual[h:]


def interleave_bursts(
    bursts: Iterable[np.ndarray], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Concatenate per-burst pair arrays, optionally shuffling burst order.

    Used by the Hadoop-style generator: each job produces a burst of requests
    among its racks; bursts keep their internal order (that is the temporal
    structure) but the job order can be shuffled.
    """
    burst_list: List[np.ndarray] = [np.asarray(b, dtype=np.int32) for b in bursts if len(b)]
    if not burst_list:
        return np.zeros((0, 2), dtype=np.int32)
    for b in burst_list:
        if b.ndim != 2 or b.shape[1] != 2:
            raise TrafficError(f"each burst must be an (k, 2) array, got shape {b.shape}")
    if rng is not None:
        order = rng.permutation(len(burst_list))
        burst_list = [burst_list[i] for i in order]
    return np.concatenate(burst_list, axis=0)
