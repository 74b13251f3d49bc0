"""Oblivious routing baseline: no reconfigurable links at all.

Every request is routed over the fixed network at cost ``ℓ_e``.  This is the
violet reference curve in the paper's routing-cost figures; the gap between
it and the other algorithms is the benefit of demand-aware reconfiguration.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

__all__ = ["ObliviousRouting"]


class ObliviousRouting(OnlineBMatchingAlgorithm):
    """Never touches the matching; all traffic stays on the fixed network."""

    name = "oblivious"

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        return (), ()

    def serve_batch(self, requests) -> None:
        """Batched replay: one vectorised distance gather per segment.

        With an empty matching every request costs exactly its hop count, and
        hop counts are integers, so the numpy sum is bit-identical to the
        sequential accumulation of :meth:`serve`.
        """
        decoded = self._batch_arrays(requests)
        if decoded is None or len(self.matching):
            super().serve_batch(requests)
            return
        lengths = decoded[3]
        self.total_routing_cost += float(lengths.sum())
        self.requests_served += len(requests)
