"""Eviction-free greedy heuristic.

A pair is added to the matching once it has accumulated ``threshold`` worth of
fixed-network routing cost *and* both endpoints still have spare matching
capacity; matched edges are never evicted.  The heuristic demonstrates why
eviction matters: it performs well early (it grabs the heaviest pairs first on
skewed traffic) but cannot adapt once the matching fills up, so it falls
behind R-BMA and BMA on workloads whose hot pairs drift over time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

__all__ = ["GreedyBMA"]


class GreedyBMA(OnlineBMatchingAlgorithm):
    """Threshold-triggered, eviction-free greedy online b-matching.

    Parameters
    ----------
    threshold:
        Accumulated fixed-network cost a pair must pay before it is added to
        the matching; defaults to ``α`` (the same break-even point used by
        R-BMA and BMA).
    """

    name = "greedy"

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        threshold: Optional[float] = None,
    ):
        super().__init__(topology, config, rng)
        self.threshold = float(config.alpha if threshold is None else threshold)
        self._counters: Dict[NodePair, float] = {}

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        if served_by_matching:
            return (), ()
        total = self._counters.get(pair, 0.0) + length * request.size
        self._counters[pair] = total
        if total < self.threshold:
            return (), ()
        if not self.matching.has_capacity(*pair):
            return (), ()
        self.matching.add(*pair)
        self._counters.pop(pair, None)
        return (pair,), ()

    def _serve_segment(self, lo, hi, keys, lengths) -> None:
        """Batched replay: counter bookkeeping on int-encoded pairs."""
        matching = self.matching
        edge_keys = matching.edge_keys
        counters = self._counters
        threshold = self.threshold
        alpha = self.config.alpha
        routing = self.total_routing_cost
        reconf = self.total_reconfiguration_cost
        served = self.requests_served
        matched = self.matched_requests
        try:
            for key, u, v, length in zip(
                keys.tolist(), lo.tolist(), hi.tolist(), lengths.tolist()
            ):
                if key in edge_keys:
                    routing += 1.0
                    served += 1
                    matched += 1
                    continue
                pair = (u, v)
                total = counters.get(pair, 0.0) + length
                counters[pair] = total
                if total >= threshold and matching.has_capacity(u, v):
                    matching.add(u, v)
                    counters.pop(pair, None)
                    self._check_degree(u)
                    routing += length
                    reconf += alpha
                else:
                    routing += length
                served += 1
        finally:
            self.total_routing_cost = routing
            self.total_reconfiguration_cost = reconf
            self.requests_served = served
            self.matched_requests = matched

    def _reset_policy_state(self) -> None:
        self._counters.clear()
