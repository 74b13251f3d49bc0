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

Both algorithms replay a trace segment with :func:`serve_specials`: Python
runs only at the special requests, which log every matching edge they add or
remove, and the costs of all requests are then read off that log in one
vectorised pass.  The log is returned as a
:class:`~repro.core.base.SegmentLog`, from which
:class:`~repro.core.hybrid.HybridBMA` computes its own segment.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..matching import BMatching
from ..paging.base import PagingAlgorithm
from ..paging.registry import PagingFactory, make_paging_factory
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm, SegmentLog, running_total, sorted_edge_keys
from .rng import CounterRNG

__all__ = ["PerNodePagingMatcher", "UniformBMatching"]

#: The ``min_segment`` of R-BMA and :class:`UniformBMatching`: shorter
#: segments are served request by request through
#: :meth:`~repro.core.base.OnlineBMatchingAlgorithm.serve`, because below it
#: the fixed numpy cost of :func:`serve_specials` outweighs the per-request
#: Python it saves (measured on the fig4 workload).
_MIN_EVENT_SEGMENT = 16

#: The event arrays of a segment log without events (shared, never written).
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_FLAGS = np.empty(0, dtype=bool)


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

        Returns the matching edges added and removed during this step.  Each
        endpoint's pager serves the pair through ``hit``, or on a miss
        through ``miss``, whose evicted pages are marked for removal; no
        :class:`~repro.paging.base.PagingResult` is built.  Most forwarded
        requests are paging hits at both endpoints and find the pair
        already matched; that path allocates nothing.
        """
        matching = self.matching
        pagers = self._pagers
        # 1. Request the pair at both endpoints; a miss may evict pages.
        for endpoint in pair:
            pager = pagers.get(endpoint)
            if pager is None:
                pager = self.pager(endpoint)
            if not pager.hit(pair):
                for evicted in pager.miss(pair):
                    # A page evicted from an endpoint's cache corresponds to
                    # a matching edge that may no longer be matched: mark it.
                    matching.mark_for_removal(*evicted)

        # 2. Ensure the requested pair is a matching edge.
        u, v = pair
        if pair in matching:
            # Requested and cached at both endpoints again: clear any stale mark.
            matching.unmark(u, v)
            return (), ()
        removed = matching.prune_to_capacity(u)
        removed.extend(matching.prune_to_capacity(v))
        matching.add(u, v)
        return (pair,), tuple(removed)

    def reset(self) -> None:
        """Drop all per-node paging state (the matching is reset by its owner)."""
        self._pagers.clear()


def pair_order(keys: np.ndarray, n_racks: int) -> np.ndarray:
    """The stable argsort of int pair keys (a radix sort when they fit in 16 bits)."""
    sortable = keys.astype(np.uint16) if n_racks * n_racks <= 1 << 16 else keys
    return sortable.argsort(kind="stable")


def serve_specials(
    algorithm: OnlineBMatchingAlgorithm,
    matcher: PerNodePagingMatcher,
    keys: np.ndarray,
    lengths: np.ndarray,
    order: np.ndarray,
    specials: np.ndarray,
) -> SegmentLog:
    """Serve a segment in which only the requests at ``specials`` reconfigure.

    ``keys`` are the segment's int-encoded canonical pairs, ``lengths`` their
    fixed-network distances and ``order`` their :func:`pair_order`;
    ``specials`` are the ascending positions of the requests forwarded to
    paging.  The segment is served in two passes, with the costs, randomness
    and errors of per-request serving:

    * ``matcher.process`` runs for each special, in order, and every edge it
      adds or removes is logged with the special's position.  An event takes
      effect after the request that caused it.  Reconfiguration cost is
      summed here, in request order.
    * Each request's hit is read from the per-pair membership timeline the
      log defines (the matching at segment start, then the last event of its
      pair before it), and routing cost is summed by a left-to-right
      cumulative sum from the carried total, the float order of per-request
      serving.

    Returns the segment's :class:`~repro.core.base.SegmentLog`: the edges
    at segment start, each request's hit, routing and reconfiguration cost,
    and the edge events.  If a special raises, the requests before it are
    committed, so the algorithm's totals are those per-request serving
    leaves, and the log covers those requests and carries the error for the
    caller to re-raise.
    """
    matching = algorithm.matching
    n = algorithm.topology.n_racks
    alpha = algorithm.config.alpha
    initial = sorted_edge_keys(matching)  # edges at segment start
    process = matcher.process
    key_list = keys.tolist()
    ev_pos: list[int] = []
    ev_key: list[int] = []
    ev_added: list[bool] = []
    reconf = algorithm.total_reconfiguration_cost
    error = None
    pos = 0
    try:
        for pos in specials.tolist():
            key = key_list[pos]
            pair = (key // n, key % n)
            added, removed = process(pair)
            if added or removed:
                algorithm._check_degree(pair[0])
                reconf += (len(added) + len(removed)) * alpha
                for u, v in removed:
                    ev_pos.append(pos)
                    ev_key.append(u * n + v)
                    ev_added.append(False)
                if added:
                    ev_pos.append(pos)
                    ev_key.append(key)
                    ev_added.append(True)
        stop = len(key_list)
    except BaseException as exc:
        error = exc
        stop = pos  # the requests before the failing special are served
        order = order[order < stop]
    # Hits are looked up in pair order (sorted queries search fastest) and
    # scattered back to request order.
    ranked = keys[order]
    if len(initial):
        hit = initial.take(initial.searchsorted(ranked), mode="clip") == ranked
    else:
        hit = np.zeros(stop, dtype=bool)
    positions = ev_keys = _NO_KEYS
    added_mask = _NO_FLAGS
    reconf_costs = np.zeros(stop)
    if ev_pos:
        positions = np.array(ev_pos, dtype=np.int64)
        ev_keys = np.array(ev_key, dtype=np.int64)
        added_mask = np.array(ev_added, dtype=bool)
        reconf_costs = np.bincount(positions, minlength=stop) * alpha
        # Sort the log by (pair, position); each request then finds its
        # pair's last event strictly before it.
        scale = stop + 1
        composite = ev_keys * scale + positions
        ev_order = composite.argsort(kind="stable")
        last = composite[ev_order].searchsorted(ranked * scale + order) - 1
        found = last >= 0
        last = ev_order[last]  # last == -1 reads a wrong event, masked below
        found &= ev_keys[last] == ranked
        hit = np.where(found, added_mask[last], hit)
    in_order = np.empty(stop, dtype=bool)
    in_order[order] = hit
    routing = np.where(in_order, 1.0, lengths[:stop])
    if stop:
        algorithm.total_routing_cost = float(
            running_total(algorithm.total_routing_cost, routing)[-1]
        )
    algorithm.total_reconfiguration_cost = reconf
    algorithm.requests_served += stop
    algorithm.matched_requests += int(np.count_nonzero(hit))
    return SegmentLog(
        initial=initial,
        hit=in_order,
        routing=routing,
        reconf=reconf_costs,
        ev_pos=positions,
        ev_key=ev_keys,
        ev_added=added_mask,
        error=error,
    )


class UniformBMatching(OnlineBMatchingAlgorithm):
    """Alg1 as a standalone algorithm: every request is forwarded to paging.

    This is the right algorithm for uniform instances (``α = 1``, all
    distances 1) and is used directly by the reduction tests; for general
    instances use :class:`~repro.core.rbma.RBMA`, which wraps this machinery
    behind the Theorem 1 request filter.
    """

    name = "uniform"
    uses_rng = True
    min_segment = _MIN_EVENT_SEGMENT

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

    def _serve_segment(self, lo, hi, keys, lengths) -> SegmentLog:
        """Batched replay through :func:`serve_specials`, every request special.

        Without a Theorem 1 filter each request reaches the per-node pagers,
        so the saving over :meth:`serve` is skipping the Request/ServeOutcome
        wrappers and reading hits and routing costs in one vectorised pass.
        """
        order = pair_order(keys, self.topology.n_racks)
        return serve_specials(
            self, self._matcher, keys, lengths, order, np.arange(len(keys))
        )

    def _reset_policy_state(self) -> None:
        self._matcher = self._make_matcher()

    def _on_matching_rebound(self, backend: str) -> None:
        self._matcher.matching = self.matching
