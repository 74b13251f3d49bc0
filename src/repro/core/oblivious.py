"""Oblivious routing baseline: no reconfigurable links at all.

Every request is routed over the fixed network at cost ``ℓ_e``.  This is the
violet reference curve in the paper's routing-cost figures; the gap between
it and the other algorithms is the benefit of demand-aware reconfiguration.
"""

from __future__ import annotations

from typing import Tuple

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
