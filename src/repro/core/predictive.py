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
from ..errors import ConfigurationError, SimulationError
from ..matching import greedy_b_matching
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

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
        return self._install_predicted_matching()

    def _install_predicted_matching(self) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        target = greedy_b_matching(
            self.predictor.predicted_weights(), self.topology.n_racks, self.config.b
        )
        current = set(self.matching.edges)
        removed = tuple(sorted(current - target))
        added = tuple(sorted(target - current))
        for edge in removed:
            self.matching.remove(*edge)
        for edge in added:
            self.matching.add(*edge)
        return added, removed

    def serve_batch(self, requests) -> None:
        """Batched replay: static-matching gathers plus a windowed bulk observe.

        Between reconfiguration points (every ``period`` requests, regardless
        of traffic) the installed matching is static, so membership for a
        whole chunk is one boolean lookup-table gather and the routing sum is
        exact (integer hop counts, unit sizes).  Savings for the predictor
        are vectorised (``max(ℓ - 1, 0)``), then fed through
        :meth:`SlidingWindowPredictor.observe_batch`, which preserves the
        sequential window/weight semantics bit for bit.
        """
        matching = self.matching
        edge_keys = getattr(matching, "edge_keys", None)
        decoded = self._batch_arrays(requests)
        if edge_keys is None or decoded is None:
            super().serve_batch(requests)
            return
        n = self.topology.n_racks
        _lo, _hi, keys_arr, lengths_arr = decoded
        savings_arr = np.maximum(lengths_arr - 1.0, 0.0)
        total = int(keys_arr.size)
        b = self.config.b
        start = 0
        while start < total:
            # The request on which ``_since_reconfig`` reaches ``period`` is
            # still routed over the old matching; the reconfiguration follows
            # it, exactly as in :meth:`serve`.
            stop = min(total, start + self.period - self._since_reconfig)
            keys = keys_arr[start:stop]
            lut = np.zeros(n * n, dtype=bool)
            lut[list(edge_keys)] = True
            hits = lut[keys]
            self.total_routing_cost += float(
                np.where(hits, 1.0, lengths_arr[start:stop]).sum()
            )
            self.requests_served += stop - start
            self.matched_requests += int(hits.sum())
            pairs = [(k // n, k % n) for k in keys.tolist()]
            self.predictor.observe_batch(pairs, savings_arr[start:stop].tolist())
            self._since_reconfig += stop - start
            if self._since_reconfig >= self.period:
                self._since_reconfig = 0
                before = matching.additions + matching.removals
                self._install_predicted_matching()
                n_changes = matching.additions + matching.removals - before
                trigger = pairs[-1][0]
                if n_changes and matching.degree(trigger) > b:
                    raise SimulationError(
                        f"{self.name}: degree bound violated at node {trigger}"
                    )
                self.total_reconfiguration_cost += n_changes * self.config.alpha
            start = stop

    def _reset_policy_state(self) -> None:
        self.predictor.reset()
        self._since_reconfig = 0
