"""R-BMA — the paper's randomized online (b, a)-matching algorithm.

R-BMA composes the two reductions of the paper:

* **Theorem 1 (reduction to the uniform case).**  For every node pair ``e``
  let ``k_e = ⌈α / ℓ_e⌉``.  Only every ``k_e``-th request to ``e`` (a
  *special* request) is forwarded to the uniform-case algorithm; R-BMA simply
  repeats the uniform algorithm's reconfiguration choices.  Intuitively, a
  pair must accumulate about ``α`` worth of fixed-network routing cost before
  it is worth touching the matching for it.
* **Theorem 2 (uniform case via paging).**  The uniform algorithm runs one
  paging instance of capacity ``b`` per rack (randomized marking by default)
  and keeps a pair matched iff it is cached at both endpoints, with lazy
  (marked) removals.

With the randomized marking / Young paging algorithm this yields the
``O((1 + ℓ_max/α)·log(b/(b−a+1)))`` competitive ratio of Corollary 3, an
exponential improvement over the best deterministic algorithm (Θ(b)).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import SimulationError
from ..paging.registry import PagingFactory, make_paging_factory
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm
from .uniform import PerNodePagingMatcher

__all__ = ["RBMA"]


class RBMA(OnlineBMatchingAlgorithm):
    """Randomized online b-matching algorithm (the paper's contribution).

    Parameters
    ----------
    topology, config, rng:
        See :class:`~repro.core.base.OnlineBMatchingAlgorithm`.
    paging_policy:
        Name of the per-node paging policy (default ``"marking"``, the
        randomized marking algorithm).  Other registered policies (``"lru"``,
        ``"fifo"``, ``"lfu"``, ``"random"``) are available for ablations.
    paging_factory:
        Alternatively, an explicit factory ``(capacity, rng) -> PagingAlgorithm``
        overriding ``paging_policy``.
    """

    name = "rbma"
    supports_batch = True
    uses_rng = True

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        paging_policy: str = "marking",
        paging_factory: Optional[PagingFactory] = None,
    ):
        super().__init__(topology, config, rng)
        self._paging_policy = paging_policy
        self._factory = paging_factory or make_paging_factory(paging_policy)
        self._matcher = PerNodePagingMatcher(self.matching, self._factory, self.counter_rng)
        # Per-pair request counters driving the Theorem 1 filter, keyed by the
        # int-encoded canonical pair (u * n + v) so the batched replay loop
        # never builds tuples for filtered requests.  Thresholds k_e depend
        # only on the pair's fixed-network length and alpha, so they are
        # computed lazily and memoised per distinct length.
        self._counters: Dict[int, int] = {}
        self._threshold_by_length: Dict[float, int] = {}

    # ------------------------------------------------------------------ #
    # Theorem 1 filter
    # ------------------------------------------------------------------ #
    def threshold(self, length: float) -> int:
        """``k_e = ⌈α / ℓ_e⌉`` for a pair with fixed-network length ``ℓ_e``."""
        k = self._threshold_by_length.get(length)
        if k is None:
            k = max(1, math.ceil(self.config.alpha / max(length, 1.0)))
            self._threshold_by_length[length] = k
        return k

    def pending_count(self, pair: NodePair) -> int:
        """Requests to ``pair`` seen since its last special request."""
        key = pair[0] * self.topology.n_racks + pair[1]
        return self._counters.get(key, 0)

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #
    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        key = pair[0] * self.topology.n_racks + pair[1]
        count = self._counters.get(key, 0) + 1
        if count < self.threshold(length):
            self._counters[key] = count
            return (), ()
        # Special request: forward to the uniform-case machinery and restart
        # the pair's counter.
        self._counters[key] = 0
        return self._matcher.process(pair)

    def serve_batch(self, requests) -> None:
        """Batched replay: filtered requests stay inside one tight loop.

        Reads the trace arrays directly and tests matching membership on
        int-encoded pairs; only *special* requests (those passing the
        Theorem 1 filter) touch the paging machinery.  Cost accounting,
        randomness consumption, and raised errors are exactly those of
        request-by-request :meth:`serve` calls.
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
        # Theorem 1 thresholds k_e = max(1, ceil(alpha / max(l, 1))) for the
        # whole segment in one vectorised pass (np.ceil of the identical
        # float division matches math.ceil exactly).
        thresholds = np.maximum(
            1, np.ceil(self.config.alpha / np.maximum(lengths_arr, 1.0)).astype(np.int64)
        ).tolist()

        counters = self._counters
        process = self._matcher.process
        alpha = self.config.alpha
        b = self.config.b
        routing = self.total_routing_cost
        reconf = self.total_reconfiguration_cost
        served = self.requests_served
        matched = self.matched_requests
        try:
            for key, length, k in zip(keys, lengths, thresholds):
                hit = key in edge_keys
                count = counters.get(key, 0) + 1
                if count < k:
                    counters[key] = count
                    n_changes = 0
                else:
                    counters[key] = 0
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
        self._matcher = PerNodePagingMatcher(self.matching, self._factory, self.counter_rng)
        self._counters.clear()

    def _on_matching_rebound(self, backend: str) -> None:
        self._matcher.matching = self.matching

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by analysis / tests)
    # ------------------------------------------------------------------ #
    @property
    def matcher(self) -> PerNodePagingMatcher:
        """The underlying uniform-case machinery (per-node pagers)."""
        return self._matcher

    def theoretical_upper_bound(self) -> float:
        """Corollary 3 upper bound for this instance's parameters."""
        from ..paging.bounds import rbma_upper_bound

        return rbma_upper_bound(
            self.config.b,
            self.config.effective_a,
            self.topology.max_distance(),
            self.config.alpha,
        )
