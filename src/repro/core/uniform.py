"""Uniform-case algorithm Alg1: per-node paging with lazy removals (Theorem 2).

Every rack runs a paging instance with cache size ``b`` whose pages are node
pairs incident to that rack.  When a pair ``e = {u, v}`` is processed, it is
requested at both endpoints' paging instances; every page those instances
evict corresponds to a matching edge that is *marked for removal* (lazy
removal, footnote 2 of the paper).  Finally ``e`` itself becomes a matching
edge, pruning marked edges if an endpoint is at its degree bound.

The invariant maintained is exactly the paper's:

    an *unmarked* matching edge is cached at both of its endpoints,

which guarantees that pruning always finds a marked edge to evict when a node
is full (see the proof sketch in ``DESIGN.md``).

:class:`PerNodePagingMatcher` is the reusable machinery; it operates on a
:class:`~repro.matching.bmatching.BMatching` owned by the caller so that
R-BMA (which forwards only *special* requests, Theorem 1) can reuse it
unchanged.  :class:`UniformBMatching` wraps it as a standalone algorithm that
treats every request as special — the correct behaviour when ``α = 1`` and
all distances are 1.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import SimulationError
from ..matching import BMatching
from ..paging.base import PagingAlgorithm
from ..paging.registry import PagingFactory, make_paging_factory
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm
from .rng import CounterRNG

__all__ = ["PerNodePagingMatcher", "UniformBMatching"]

class PerNodePagingMatcher:
    """Maintains per-node paging instances and the matching they induce.

    Parameters
    ----------
    matching:
        The b-matching to operate on (owned by the caller).
    paging_factory:
        Callable ``(capacity, rng) -> PagingAlgorithm`` constructing the
        per-node caches; defaults to the randomized marking algorithm.
    rng:
        Source of the per-node paging randomness: a
        :class:`~repro.core.rng.CounterRNG`, or a seed keying one.  Each
        node draws from the stream keyed by its node id
        (``rng.stream(node)``), which consumes nothing from any shared
        state: pager construction order does not matter and replay needs
        no generator forking.
    """

    def __init__(
        self,
        matching: BMatching,
        paging_factory: Optional[PagingFactory] = None,
        rng: Optional[CounterRNG | int] = None,
    ):
        self.matching = matching
        self._factory = paging_factory or make_paging_factory("marking")
        self._rng = rng if isinstance(rng, CounterRNG) else CounterRNG(rng)
        self._pagers: Dict[int, PagingAlgorithm] = {}

    def pager(self, node: int) -> PagingAlgorithm:
        """The paging instance of ``node``, created lazily on first use."""
        pager = self._pagers.get(node)
        if pager is None:
            pager = self._factory(self.matching.b, self._rng.stream(node))
            self._pagers[node] = pager
        return pager

    @property
    def active_nodes(self) -> frozenset[int]:
        """Nodes whose paging instance has been instantiated."""
        return frozenset(self._pagers)

    def process(self, pair: NodePair) -> Tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        """Forward ``pair`` to both endpoints' pagers and update the matching.

        Returns the matching edges added and removed during this step.
        """
        u, v = pair
        # 1. Request the pair at both endpoints; collect evicted pages.
        for endpoint in (u, v):
            result = self.pager(endpoint).request(pair)
            for evicted in result.evicted:
                # A page evicted from an endpoint's cache corresponds to a
                # matching edge that may no longer be matched: mark it.
                self.matching.mark_for_removal(*evicted)

        # 2. Ensure the requested pair is a matching edge.
        added: list[NodePair] = []
        removed: list[NodePair] = []
        if pair in self.matching:
            # Requested and cached at both endpoints again: clear any stale mark.
            self.matching.unmark(u, v)
        else:
            for endpoint in (u, v):
                removed.extend(self.matching.prune_to_capacity(endpoint))
            self.matching.add(u, v)
            added.append(pair)

        return tuple(added), tuple(removed)

    def reset(self) -> None:
        """Drop all per-node paging state (the matching is reset by its owner)."""
        self._pagers.clear()


class UniformBMatching(OnlineBMatchingAlgorithm):
    """Alg1 as a standalone algorithm: every request is forwarded to paging.

    This is the right algorithm for uniform instances (``α = 1``, all
    distances 1) and is used directly by the reduction tests; for general
    instances use :class:`~repro.core.rbma.RBMA`, which wraps this machinery
    behind the Theorem 1 request filter.
    """

    name = "uniform"
    supports_batch = True
    uses_rng = True

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        paging_policy: str = "marking",
    ):
        super().__init__(topology, config, rng)
        self._paging_policy = paging_policy
        self._matcher = self._make_matcher()

    def _make_matcher(self) -> PerNodePagingMatcher:
        return PerNodePagingMatcher(
            self.matching, make_paging_factory(self._paging_policy), self.counter_rng
        )

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        return self._matcher.process(pair)

    def serve_batch(self, requests) -> None:
        """Batched replay: every request drives paging in one tight int loop.

        Unlike R-BMA there is no Theorem 1 filter — each request reaches the
        per-node pagers — so the win over :meth:`serve` is skipping the
        Request/ServeOutcome wrappers and testing matching membership on
        int-encoded pairs.  Cost accounting, randomness consumption, and
        raised errors match request-by-request serving exactly.
        """
        matching = self.matching
        edge_keys = getattr(matching, "edge_keys", None)
        decoded = self._batch_arrays(requests)
        if edge_keys is None or decoded is None:
            super().serve_batch(requests)
            return
        n = self.topology.n_racks
        _lo, _hi, keys_arr, lengths_arr = decoded
        keys = keys_arr.tolist()
        lengths = lengths_arr.tolist()

        process = self._matcher.process
        alpha = self.config.alpha
        b = self.config.b
        routing = self.total_routing_cost
        reconf = self.total_reconfiguration_cost
        served = self.requests_served
        matched = self.matched_requests
        try:
            for key, length in zip(keys, lengths):
                hit = key in edge_keys
                before = matching.additions + matching.removals
                pair = (key // n, key % n)
                process(pair)
                n_changes = matching.additions + matching.removals - before
                if n_changes and matching.degree(pair[0]) > b:
                    raise SimulationError(
                        f"{self.name}: degree bound violated at node {pair[0]}"
                    )
                routing += 1.0 if hit else length
                if n_changes:
                    reconf += n_changes * alpha
                served += 1
                if hit:
                    matched += 1
        finally:
            self.total_routing_cost = routing
            self.total_reconfiguration_cost = reconf
            self.requests_served = served
            self.matched_requests = matched

    def _reset_policy_state(self) -> None:
        self._matcher = self._make_matcher()

    def _on_matching_rebound(self, backend: str) -> None:
        self._matcher.matching = self.matching
