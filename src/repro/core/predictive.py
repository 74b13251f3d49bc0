"""Prediction-augmented online b-matching (the paper's §5 future-work direction).

The paper closes by noting that real traffic has temporal structure and that
algorithms leveraging *predictions* of future demand are an interesting
extension.  :class:`PredictiveBMA` implements the natural candidate: a
sliding-window frequency predictor estimates per-pair demand, and every
``period`` requests the algorithm reconfigures towards the greedy
maximum-saving b-matching of the predicted demand.  Between reconfiguration
points it behaves obliviously (routing over whatever matching is installed).

This is *not* part of the paper's evaluation; it exists so the ablation
benchmarks can quantify how much headroom predictions offer over the purely
online R-BMA on traces with strong temporal structure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError
from ..matching import greedy_b_matching
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm, SegmentLog, running_total, sorted_edge_keys

__all__ = ["SlidingWindowPredictor", "PredictiveBMA"]


class SlidingWindowPredictor:
    """Predicts per-pair demand as the (length-weighted) frequency in a sliding window."""

    def __init__(self, window: int = 2000):
        if window < 1:
            raise ConfigurationError(f"predictor window must be >= 1, got {window}")
        self.window = int(window)
        self._recent: Deque[tuple[NodePair, float]] = deque()
        self._weights: Dict[NodePair, float] = {}

    def observe(self, pair: NodePair, saving: float) -> None:
        """Record one request with its potential routing-cost saving."""
        self._recent.append((pair, saving))
        self._weights[pair] = self._weights.get(pair, 0.0) + saving
        while len(self._recent) > self.window:
            old_pair, old_saving = self._recent.popleft()
            remaining = self._weights.get(old_pair, 0.0) - old_saving
            if remaining <= 1e-12:
                self._weights.pop(old_pair, None)
            else:
                self._weights[old_pair] = remaining

    def observe_batch(self, pairs, savings) -> None:
        """Record many requests at once (hoisted-lookup form of :meth:`observe`).

        State after the call — window contents, per-pair weights, and the
        weight dict's insertion order (which the downstream greedy matching's
        tie-breaking can see) — is exactly what repeated :meth:`observe`
        calls would leave behind; only the attribute lookups are hoisted out
        of the loop.
        """
        recent = self._recent
        weights = self._weights
        window = self.window
        append = recent.append
        popleft = recent.popleft
        get = weights.get
        pop = weights.pop
        for pair, saving in zip(pairs, savings):
            append((pair, saving))
            weights[pair] = get(pair, 0.0) + saving
            while len(recent) > window:
                old_pair, old_saving = popleft()
                remaining = get(old_pair, 0.0) - old_saving
                if remaining <= 1e-12:
                    pop(old_pair, None)
                else:
                    weights[old_pair] = remaining

    def predicted_weights(self) -> Dict[NodePair, float]:
        """Current window demand estimate, per pair."""
        return dict(self._weights)

    def reset(self) -> None:
        """Clear the window."""
        self._recent.clear()
        self._weights.clear()


class PredictiveBMA(OnlineBMatchingAlgorithm):
    """Periodically reconfigures to the predicted-best static b-matching.

    Parameters
    ----------
    period:
        Number of requests between reconfiguration points.
    window:
        Size of the sliding window feeding the predictor.
    """

    name = "predictive"

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        period: int = 1000,
        window: int = 2000,
    ):
        super().__init__(topology, config, rng)
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self.period = int(period)
        self.predictor = SlidingWindowPredictor(window)
        self._since_reconfig = 0

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        self.predictor.observe(pair, max(length - 1.0, 0.0) * request.size)
        self._since_reconfig += 1
        if self._since_reconfig < self.period:
            return (), ()
        self._since_reconfig = 0
        n = self.topology.n_racks
        added, removed = self._install_predicted_matching()
        return tuple((k // n, k % n) for k in added), tuple((k // n, k % n) for k in removed)

    def _install_predicted_matching(self) -> tuple[list[int], list[int]]:
        """Install the predicted-best matching; the sorted int keys added and removed.

        Sorted int keys ``u * n + v`` order exactly like sorted canonical
        pairs: the removals, then the additions, are applied in pair order.
        """
        n = self.topology.n_racks
        target = {
            u * n + v
            for u, v in greedy_b_matching(self.predictor.predicted_weights(), n, self.config.b)
        }
        current = getattr(self.matching, "edge_keys", None)
        if current is None:
            current = {u * n + v for u, v in self.matching.edges}
        removed = sorted(current - target)
        added = sorted(target - current)
        for key in removed:
            self.matching.remove(key // n, key % n)
        for key in added:
            self.matching.add(key // n, key % n)
        return added, removed

    def _serve_segment(self, lo, hi, keys, lengths) -> SegmentLog:
        """Serve one decoded segment and return its log.

        Between reconfiguration points (every ``period`` requests, regardless
        of traffic) the installed matching is static, so a period chunk's
        hits are one search of its sorted edge keys.  Savings for the
        predictor are vectorised (``max(ℓ - 1, 0)``), then fed through
        :meth:`SlidingWindowPredictor.observe_batch`, which preserves the
        sequential window/weight semantics bit for bit.  An install logs its
        sorted removals, then its sorted additions, at the request that
        triggered it.

        If an install raises (only the degree-bound check can, which a valid
        :func:`~repro.matching.greedy_b_matching` never trips), the state is
        that of per-request serving: the requests before the trigger are
        committed, the predictor has seen the trigger, and the matching holds
        whatever the install changed.  The log covers the committed requests
        and carries the error, unraised.
        """
        alpha = self.config.alpha
        total = len(keys)
        savings = np.maximum(lengths - 1.0, 0.0).tolist()
        initial = sorted_edge_keys(self.matching)
        hit = np.empty(total, dtype=bool)
        reconf = np.zeros(total)
        ev_pos: list[int] = []
        ev_key: list[int] = []
        ev_added: list[bool] = []
        error = None
        start = stop = 0
        try:
            while start < total:
                # The request on which ``_since_reconfig`` reaches ``period``
                # is still routed over the old matching; the reconfiguration
                # follows it, exactly as in :meth:`serve`.
                stop = min(total, start + self.period - self._since_reconfig)
                hit[start:stop] = self._hits(keys[start:stop])
                pairs = list(zip(lo[start:stop].tolist(), hi[start:stop].tolist()))
                self.predictor.observe_batch(pairs, savings[start:stop])
                self._since_reconfig += stop - start
                start = stop
                if self._since_reconfig >= self.period:
                    self._since_reconfig = 0
                    trigger = stop - 1
                    added, removed = self._install_predicted_matching()
                    n_changes = len(added) + len(removed)
                    if n_changes:
                        self._check_degree(pairs[-1][0])
                    reconf[trigger] = n_changes * alpha
                    ev_pos += [trigger] * n_changes
                    ev_key += removed + added
                    ev_added += [False] * len(removed) + [True] * len(added)
        except BaseException as exc:
            error = exc
            total = stop - 1  # the trigger and the requests after it are not served
        hit = hit[:total]
        reconf = reconf[:total]
        routing = np.where(hit, 1.0, lengths[:total])
        if total:
            self.total_routing_cost = float(running_total(self.total_routing_cost, routing)[-1])
            self.total_reconfiguration_cost = float(
                running_total(self.total_reconfiguration_cost, reconf)[-1]
            )
        self.requests_served += total
        self.matched_requests += int(np.count_nonzero(hit))
        return SegmentLog(
            initial=initial,
            hit=hit,
            routing=routing,
            reconf=reconf,
            ev_pos=np.array(ev_pos, dtype=np.int64),
            ev_key=np.array(ev_key, dtype=np.int64),
            ev_added=np.array(ev_added, dtype=bool),
            error=error,
        )

    def _reset_policy_state(self) -> None:
        self.predictor.reset()
        self._since_reconfig = 0
