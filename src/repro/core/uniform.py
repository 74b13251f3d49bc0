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
is full: once ``e`` is requested at ``u``, the cache of ``u`` (at most ``b``
pages) holds ``e`` and every unmarked matching edge at ``u``, so at most
``b - 1`` of the ``b`` matching edges at ``u`` are unmarked.

:class:`PerNodePagingMatcher` is the reusable machinery; it operates on a
:class:`~repro.matching.bmatching.BMatching` owned by the caller so that
R-BMA (which forwards only *special* requests, Theorem 1) can reuse it
unchanged.  :class:`UniformBMatching` wraps it as a standalone algorithm that
treats every request as special — the correct behaviour when ``α = 1`` and
all distances are 1.

Both algorithms replay a trace segment with :func:`serve_specials`: Python
runs only at the special requests, and logs every matching edge they add or
remove.  That log is all a batched replay returns; the base class's one
ledger (:meth:`~repro.core.base.OnlineBMatchingAlgorithm._replay`) reads
every request's hit and cost off it and commits the totals.  For marking
pagers it inlines :meth:`PerNodePagingMatcher.process`, its reference, with
the same adds and removes on each cache set in the same order: the marking
victim is an index into the set's iteration order.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..matching import BMatching
from ..paging.base import PagingAlgorithm
from ..paging.marking import RandomizedMarking
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


def serve_specials(
    algorithm: OnlineBMatchingAlgorithm,
    matcher: PerNodePagingMatcher,
    keys: np.ndarray,
    specials: np.ndarray,
) -> tuple:
    """Run ``matcher.process`` at the requests ``specials`` lists, logging its edges.

    ``keys`` are the segment's int-encoded canonical pairs and ``specials``
    the ascending positions of the requests forwarded to paging.  Each
    special is processed in order, with the randomness and errors of
    per-request serving, and every edge it adds or removes is logged with
    the special's position.  The other requests change nothing.

    If the matcher's factory is the class :class:`RandomizedMarking` itself,
    every pager is exactly one, and one flat loop inlines ``process``: the
    pagers' ``hit`` and ``miss`` and the fast kernel's ``mark_for_removal``,
    ``unmark``, ``prune_to_capacity`` and ``add``, statement by statement.
    Only the draw and ``algorithm._check_degree`` are called per special.
    Any other factory (a policy, a subclass, a wrapper) calls ``process``.

    Returns ``(served, ev_pos, ev_key, ev_added, error)``, the
    :meth:`~repro.core.base.OnlineBMatchingAlgorithm._serve_segment` result
    from which the base class prices the segment.  If a special raises, the
    requests before it are served and the error is returned, unraised.
    """
    n = algorithm.topology.n_racks
    process = matcher.process
    check_degree = algorithm._check_degree
    ev_pos: list[int] = []
    ev_key: list[int] = []
    ev_added: list[bool] = []
    pos = 0
    try:
        if matcher._factory is not RandomizedMarking:
            for pos, key in zip(specials.tolist(), keys[specials].tolist()):
                pair = (key // n, key % n)
                added, removed = process(pair)
                if added:  # process removes edges only to add the pair
                    check_degree(pair[0])
                    for u, v in removed:
                        ev_pos.append(pos)
                        ev_key.append(u * n + v)
                        ev_added.append(False)
                    ev_pos.append(pos)
                    ev_key.append(key)
                    ev_added.append(True)
            return len(keys), ev_pos, ev_key, ev_added, None
        matching = matcher.matching
        b = matching._b
        degree = matching._degree
        edge_keys = matching._edge_keys
        incident = matching._incident
        marked_keys = matching._marked_keys
        marked_at = matching._marked_at
        slots = {}  # node -> (cache set, marked set, stats, pager) of its pager
        for pos, key in zip(specials.tolist(), keys[specials].tolist()):
            u, v = pair = (key // n, key % n)
            for node in pair:
                slot = slots.get(node)
                if slot is None:
                    pager = matcher.pager(node)
                    slot = slots[node] = (pager._cache, pager._marked, pager.stats, pager)
                cache, marked, stats, pager = slot
                stats.requests += 1
                if pair in cache:
                    stats.hits += 1
                    marked.add(pair)
                    continue
                stats.misses += 1
                while len(cache) >= pager._capacity:
                    unmarked = [page for page in cache if page not in marked]
                    if not unmarked:  # a new phase: every cached page was marked
                        marked.clear()
                        pager._phase_count += 1
                        unmarked = list(cache)
                    victim = unmarked[pager._rng.integers(len(unmarked), pager._draw_index)]
                    pager._draw_index += 1
                    cache.remove(victim)
                    marked.discard(victim)
                    stats.evictions += 1
                    # The evicted page's matching edge, if any, is marked for removal.
                    gone = victim[0] * n + victim[1]
                    if gone in edge_keys and gone not in marked_keys:
                        marked_keys.add(gone)
                        marked_at[victim[0]].add(gone)
                        marked_at[victim[1]].add(gone)
                cache.add(pair)
                marked.add(pair)
            if key in edge_keys:
                if key in marked_keys:
                    marked_keys.discard(key)
                    marked_at[u].discard(key)
                    marked_at[v].discard(key)
                continue
            for node in pair:
                while degree[node] >= b:
                    here = marked_at[node]
                    if not here:  # the kernel raises its DegreeConstraintError
                        matching.prune_to_capacity(node)
                    gone = min(here)
                    edge_keys.discard(gone)
                    marked_keys.discard(gone)
                    for end in (gone // n, gone % n):
                        incident[end].discard(gone)
                        degree[end] -= 1
                        marked_at[end].discard(gone)
                    matching._removals += 1
                    ev_pos.append(pos)
                    ev_key.append(gone)
                    ev_added.append(False)
            edge_keys.add(key)
            for end in pair:
                incident[end].add(key)
                degree[end] += 1
            matching._additions += 1
            check_degree(u)
            ev_pos.append(pos)
            ev_key.append(key)
            ev_added.append(True)
    except BaseException as exc:
        return pos, ev_pos, ev_key, ev_added, exc  # the requests before pos are served
    return len(keys), ev_pos, ev_key, ev_added, None


class UniformBMatching(OnlineBMatchingAlgorithm):
    """Alg1 as a standalone algorithm: every request is forwarded to paging.

    This is the right algorithm for uniform instances (``α = 1``, all
    distances 1) and is used directly by the reduction tests; for general
    instances use :class:`~repro.core.rbma.RBMA`, which wraps this machinery
    behind the Theorem 1 request filter.
    """

    name = "uniform"
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

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Batched replay through :func:`serve_specials`, every request special.

        Without a Theorem 1 filter each request reaches the per-node pagers,
        so the saving over :meth:`serve` is skipping the Request/ServeOutcome
        wrappers and pricing the segment in one vectorised pass.
        """
        return serve_specials(self, self._matcher, keys, np.arange(len(keys)))

    def _reset_policy_state(self) -> None:
        self._matcher = self._make_matcher()

    def _on_matching_rebound(self, backend: str) -> None:
        self._matcher.matching = self.matching
