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

Which requests are special depends only on per-pair counts and ``k_e``, not
on the matching or the randomness, so :meth:`RBMA._serve_segment` finds a
segment's specials in one numpy pass and runs Python only at those.  It logs
the edges they add and remove, and the base class prices every request from
that log, as it does for every algorithm's batched replay.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..paging.registry import PagingFactory, make_paging_factory
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm, pair_order
from .uniform import PerNodePagingMatcher, serve_specials

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
        """Requests to ``pair`` (either orientation) seen since its last special request."""
        u, v = self.topology.validate_pair(*pair)
        key = u * self.topology.n_racks + v
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

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Event-skipping replay: Python runs only at special requests.

        One numpy pass finds the segment's special requests from the carried
        counters and the thresholds ``k_e``;
        :func:`~repro.core.uniform.serve_specials` forwards only those to the
        paging machinery and logs the edge events they cause.  Randomness
        consumption, counters and raised errors are exactly those of
        request-by-request :meth:`serve` calls.  The segment must be
        non-empty.
        """
        order = pair_order(keys, self.topology.n_racks)
        # k_e = max(1, ceil(alpha / max(l, 1))) per request; np.ceil of the
        # identical float division matches math.ceil exactly.
        thresholds = np.maximum(
            1, np.ceil(self.config.alpha / np.maximum(lengths, 1.0)).astype(np.int64)
        )
        specials, counters = self._find_specials(keys, thresholds, order)
        events = serve_specials(self, self._matcher, keys, specials)
        served, error = events[0], events[-1]
        if error is not None:
            # Per-request serving has also restarted the failing special's
            # counter, so the counters advance through it.
            counters = self._find_specials(keys, thresholds, order[order <= served])[1]
        self._counters.update(counters)
        return events

    def _find_specials(
        self, keys: np.ndarray, thresholds: np.ndarray, order: np.ndarray
    ) -> tuple[np.ndarray, Dict[int, int]]:
        """Theorem 1 over the requests ``order`` lists, sorted stably by pair.

        Returns the positions of the special requests and the counters after
        them.  A request's occurrence rank ``j`` (0-based) among its pair's
        requests follows from the sort; with ``c0`` the pair's carried
        counter, the request is special iff ``(c0 + j + 1) % k_e == 0``, and
        the pair's counter afterwards is ``(c0 + n_e) % k_e`` for its ``n_e``
        requests.
        """
        ranked = keys[order]
        m = len(ranked)
        first = np.empty(m, dtype=bool)  # first request of its pair
        first[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        starts = first.nonzero()[0]
        pairs = ranked[starts].tolist()
        get = self._counters.get
        carried = np.array([get(key, 0) for key in pairs], dtype=np.int64)
        # count = c0 + j + 1, where j = sorted position - start of the pair.
        count = (carried - starts)[first.cumsum() - 1]
        count += np.arange(1, m + 1)
        k = thresholds[order]
        special = np.zeros(len(keys), dtype=bool)
        special[order] = count % k == 0
        ends = np.append(starts[1:], m) - 1  # last request of each pair
        after = count[ends] % k[ends]
        return special.nonzero()[0], dict(zip(pairs, after.tolist()))

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
