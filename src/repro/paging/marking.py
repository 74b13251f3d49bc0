"""Randomized marking algorithm (Fiat, Karp, Luby, McGeoch, Sleator, Young).

The algorithm proceeds in phases.  Every cached page is either *marked* or
*unmarked*; a phase ends when a miss occurs while all cached pages are
marked, at which point all marks are cleared.  On a hit the page is marked;
on a miss a uniformly random *unmarked* cached page is evicted, the new page
is fetched and marked.

Against an adversary with the same cache size ``k`` the algorithm is
``2·H_k``-competitive; against an adversary with a smaller cache ``h ≤ k``
(the resource-augmented ``(b, a)``-paging setting used by the paper) its
ratio improves to ``O(log(k/(k-h+1)))`` [Young 1991], which is exactly the
bound plugged into Corollary 3 of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Union

from .base import PagingAlgorithm, coerce_paging_rng

if TYPE_CHECKING:
    from ..core.rng import CounterRNG

__all__ = ["RandomizedMarking"]


class RandomizedMarking(PagingAlgorithm):
    """Randomized marking paging algorithm.

    Parameters
    ----------
    capacity:
        Cache size ``k`` (the matching degree bound ``b`` in the reduction).
    rng:
        ``None``, an int seed (which keys a
        :class:`~repro.core.rng.CounterRNG`), or a ``CounterRNG``: every
        eviction draw is a pure function of its draw index, so replay needs
        no generator-state bookkeeping.  Anything else raises
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, capacity: int, rng: Optional[Union[int, CounterRNG]] = None):
        super().__init__(capacity)
        self._rng = coerce_paging_rng(rng)
        self._draw_index = 0
        self._marked: set[Hashable] = set()
        self._phase_count = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def marked_pages(self) -> frozenset:
        """Pages currently marked."""
        return frozenset(self._marked)

    @property
    def phase_count(self) -> int:
        """Number of completed phases (phase boundaries encountered)."""
        return self._phase_count

    def is_marked(self, page: Hashable) -> bool:
        """Whether ``page`` is currently marked."""
        return page in self._marked

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    def _evict_victim(self) -> Hashable:
        unmarked = [p for p in self._cache if p not in self._marked]
        if not unmarked:
            # All cached pages are marked: the current phase ends and a new
            # one begins with all pages unmarked.
            self._marked.clear()
            self._phase_count += 1
            unmarked = list(self._cache)
        # Pages are small hashable values (node-pair tuples), so set iteration
        # order is deterministic for a given request history; a uniform index
        # into that order keeps runs reproducible without sorting.
        idx = self._rng.integers(len(unmarked), self._draw_index)
        self._draw_index += 1
        return unmarked[idx]

    def _on_hit(self, page: Hashable) -> None:
        self._marked.add(page)

    def _on_fetch(self, page: Hashable) -> None:
        self._marked.add(page)

    def _on_evict(self, page: Hashable) -> None:
        self._marked.discard(page)

    def _on_reset(self) -> None:
        self._marked.clear()
        self._phase_count = 0
        self._draw_index = 0
