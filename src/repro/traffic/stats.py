"""Trace structure statistics.

Quantifies the two properties the paper argues drive algorithm behaviour:
*spatial skew* (a few rack pairs carry most traffic) and *temporal locality*
(requests to the same pair arrive close together).  The statistics follow the
"trace complexity" methodology of Avin et al. (SIGMETRICS 2020) in spirit:
entropy-based skew measures plus a re-reference measure for burstiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..errors import TrafficError
from .base import Trace
from .stream import TraceStream

__all__ = ["TraceStatistics", "TraceStatisticsAccumulator", "compute_trace_statistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace.

    Attributes
    ----------
    n_requests, n_nodes:
        Trace dimensions.
    n_distinct_pairs:
        Number of distinct rack pairs that appear at all.
    top1pct_share, top10pct_share:
        Fraction of requests carried by the heaviest 1 % / 10 % of the
        *appearing* pairs — the spatial-skew summaries.
    pair_entropy_bits, normalized_entropy:
        Shannon entropy of the empirical pair distribution and its ratio to
        the maximum possible entropy over the appearing pairs (1 = uniform,
        close to 0 = extremely skewed).
    rereference_rate:
        Fraction of requests whose pair already occurred within the previous
        ``window`` requests — the temporal-locality summary (i.i.d. traces
        score close to the skew-induced baseline, bursty traces score high).
    mean_rereference_distance:
        Average gap (in requests) to the previous occurrence of the same
        pair, over requests whose pair occurred before.
    """

    n_requests: int
    n_nodes: int
    n_distinct_pairs: int
    top1pct_share: float
    top10pct_share: float
    pair_entropy_bits: float
    normalized_entropy: float
    rereference_rate: float
    mean_rereference_distance: float

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for serialisation and reports."""
        return {
            "n_requests": self.n_requests,
            "n_nodes": self.n_nodes,
            "n_distinct_pairs": self.n_distinct_pairs,
            "top1pct_share": self.top1pct_share,
            "top10pct_share": self.top10pct_share,
            "pair_entropy_bits": self.pair_entropy_bits,
            "normalized_entropy": self.normalized_entropy,
            "rereference_rate": self.rereference_rate,
            "mean_rereference_distance": self.mean_rereference_distance,
        }


def _share_of_top(counts: np.ndarray, fraction: float) -> float:
    k = max(1, int(round(fraction * counts.size)))
    top = np.sort(counts)[::-1][:k]
    return float(top.sum() / counts.sum())


class TraceStatisticsAccumulator:
    """Incremental :class:`TraceStatistics` over streamed trace segments.

    Feed contiguous segments in order via :meth:`update`;
    :meth:`finalize` then returns the same statistics however the requests
    were split into segments: the pair counts are laid out in sorted-key
    order, so the entropy and top-share reductions run over the same arrays,
    and the integer re-reference tallies stay exact (all partial sums are far
    below 2^53, where float64 arithmetic is lossless).

    Peak memory is O(distinct pairs), not O(requests).
    """

    def __init__(self, n_nodes: int, window: int = 64):
        if n_nodes < 2:
            raise TrafficError(f"need at least 2 racks, got {n_nodes}")
        if window < 1:
            raise TrafficError(f"window must be >= 1, got {window}")
        self.n_nodes = int(n_nodes)
        self.window = int(window)
        self._counts: Dict[int, int] = {}
        self._last_seen: Dict[int, int] = {}
        self._n = 0
        self._within_window = 0
        self._distance_sum = 0
        self._seen_before = 0

    @property
    def n_requests(self) -> int:
        """Requests accumulated so far."""
        return self._n

    def update(self, segment: Trace) -> None:
        """Fold one trace segment (the next contiguous requests) in."""
        if segment.n_nodes != self.n_nodes:
            raise TrafficError(
                f"segment addresses {segment.n_nodes} racks, accumulator "
                f"was built for {self.n_nodes}"
            )
        n = self.n_nodes
        lo = np.minimum(segment.sources, segment.destinations).astype(np.int64)
        hi = np.maximum(segment.sources, segment.destinations).astype(np.int64)
        keys = (lo * n + hi).tolist()
        counts = self._counts
        last_seen = self._last_seen
        window = self.window
        i = self._n
        for key in keys:
            prev = last_seen.get(key)
            if prev is not None:
                distance = i - prev
                self._seen_before += 1
                self._distance_sum += distance
                if distance <= window:
                    self._within_window += 1
            last_seen[key] = i
            counts[key] = counts.get(key, 0) + 1
            i += 1
        self._n = i

    def finalize(self) -> TraceStatistics:
        """The statistics of everything accumulated so far."""
        if self._n == 0:
            raise TrafficError("cannot compute statistics of an empty trace")
        # Sorted-key layout makes the float reductions below independent of
        # the order in which pairs first appeared.
        counts = np.array(
            [self._counts[k] for k in sorted(self._counts)], dtype=np.int64
        )
        probs = counts / counts.sum()
        entropy = float(-(probs * np.log2(probs)).sum())
        max_entropy = float(np.log2(len(counts))) if len(counts) > 1 else 1.0
        return TraceStatistics(
            n_requests=self._n,
            n_nodes=self.n_nodes,
            n_distinct_pairs=int(len(counts)),
            top1pct_share=_share_of_top(counts, 0.01),
            top10pct_share=_share_of_top(counts, 0.10),
            pair_entropy_bits=entropy,
            normalized_entropy=entropy / max_entropy if max_entropy > 0 else 1.0,
            rereference_rate=self._within_window / self._n,
            mean_rereference_distance=(
                self._distance_sum / self._seen_before
                if self._seen_before
                else float("inf")
            ),
        )


def compute_trace_statistics(
    trace: Union[Trace, TraceStream], window: int = 64
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for a trace or a trace stream.

    Parameters
    ----------
    trace:
        The trace to analyse.  Either form is consumed segment by segment
        through :class:`TraceStatisticsAccumulator` (a materialized trace is
        wrapped with :meth:`TraceStream.from_trace`), so a stream and its
        materialized trace give the same statistics.
    window:
        Look-back window (in requests) for the re-reference rate.
    """
    stream = trace if isinstance(trace, TraceStream) else TraceStream.from_trace(trace)
    acc = TraceStatisticsAccumulator(stream.n_nodes, window=window)
    for segment in stream:
        acc.update(segment)
    return acc.finalize()
