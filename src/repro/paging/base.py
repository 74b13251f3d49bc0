"""Paging algorithm interface.

The model follows the classic formulation (Sleator & Tarjan): an algorithm
manages a cache of at most ``capacity`` pages.  On a request to page ``p``:

* if ``p`` is cached, the request is a *hit* and costs nothing;
* otherwise it is a *miss* (fault): the algorithm must fetch ``p`` into the
  cache (bypassing is not allowed), evicting pages as needed, and pays 1.

The matching reduction (Theorem 2 of the paper) additionally needs to know
*which* pages were evicted on each request so that the corresponding matching
edges can be dropped; :class:`PagingResult` reports that.  Most requests the
reduction forwards are hits, which evict nothing, so it serves them through
:meth:`PagingAlgorithm.hit` (a bool, no result object) and calls
:meth:`PagingAlgorithm.request` only on a miss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, PagingError

__all__ = ["PagingResult", "PagingAlgorithm", "EvictionCallback", "coerce_paging_rng"]

#: Callback invoked with every evicted page (used by R-BMA for lazy removal).
EvictionCallback = Callable[[Hashable], None]


def coerce_paging_rng(rng):
    """Validate a paging ``rng=`` argument into the pager's CounterRNG.

    A :class:`~repro.core.rng.CounterRNG` is used as-is; ``None`` or an
    integer seed keys ``CounterRNG(seed)``.  Every eviction draw is then a
    pure function of its draw index, with no carried generator state.
    Anything else — a numpy ``Generator``, a float, a string, a foreign RNG
    object — raises :class:`~repro.errors.ConfigurationError` instead of
    being silently reinterpreted (a bool, for instance, would quietly act
    as seed 0 or 1).
    """
    from ..core.rng import CounterRNG  # local import: core imports paging

    if isinstance(rng, CounterRNG):
        return rng
    if rng is None or (isinstance(rng, (int, np.integer)) and not isinstance(rng, bool)):
        return CounterRNG(rng)
    raise ConfigurationError(
        f"paging rng must be None, an int seed, or a CounterRNG; "
        f"got {type(rng).__name__}: {rng!r}"
    )


@dataclass(frozen=True, slots=True)
class PagingResult:
    """Outcome of a single paging request.

    Attributes
    ----------
    page:
        The requested page.
    hit:
        Whether the page was already cached.
    evicted:
        Pages removed from the cache while serving this request (empty on a
        hit).
    """

    page: Hashable
    hit: bool
    evicted: Tuple[Hashable, ...] = ()

    @property
    def miss(self) -> bool:
        """Convenience negation of :attr:`hit`."""
        return not self.hit


@dataclass
class PagingStats:
    """Running counters kept by every paging algorithm."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def hit_ratio(self) -> float:
        """Fraction of requests that were hits (0 if no requests yet)."""
        return self.hits / self.requests if self.requests else 0.0


class PagingAlgorithm(ABC):
    """Abstract online paging algorithm with a fixed cache capacity.

    Subclasses implement :meth:`_evict_victim` (choose a page to evict on a
    miss with a full cache) and may override :meth:`_on_hit` /
    :meth:`_on_fetch` to maintain their bookkeeping.  A subclass that checks
    every request (as :class:`~repro.paging.belady.BeladyPaging` checks its
    known sequence) must do so in :meth:`hit` as well as :meth:`request`:
    callers may serve a hit through :meth:`hit` alone.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise PagingError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._cache: set[Hashable] = set()
        self.stats = PagingStats()

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Maximum number of cached pages."""
        return self._capacity

    @property
    def cache(self) -> frozenset:
        """Snapshot of the current cache contents."""
        return frozenset(self._cache)

    def __contains__(self, page: Hashable) -> bool:
        return page in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def hit(self, page: Hashable) -> bool:
        """Serve a request to ``page`` if it is cached; report whether it was.

        On a hit this does all of a hit's bookkeeping (statistics and
        :meth:`_on_hit`) and returns True.  On a miss it returns False and
        changes nothing; the caller then serves the miss with
        :meth:`request`.  :meth:`request` calls this first, so a hit is
        served the same way whichever entry point is used, without
        building a :class:`PagingResult`.
        """
        if page not in self._cache:
            return False
        stats = self.stats
        stats.requests += 1
        stats.hits += 1
        self._on_hit(page)
        return True

    def request(self, page: Hashable) -> PagingResult:
        """Serve a request to ``page`` and return what happened.

        On a miss the page is always fetched (no bypassing), evicting a
        victim chosen by the concrete policy if the cache is full.
        """
        if self.hit(page):
            return PagingResult(page=page, hit=True)

        self.stats.requests += 1
        self.stats.misses += 1
        evicted: list[Hashable] = []
        while len(self._cache) >= self._capacity:
            victim = self._evict_victim()
            if victim not in self._cache:
                raise PagingError(
                    f"{type(self).__name__} chose eviction victim {victim!r} not in cache"
                )
            self._cache.remove(victim)
            self._on_evict(victim)
            self.stats.evictions += 1
            evicted.append(victim)
        self._cache.add(page)
        self._on_fetch(page)
        return PagingResult(page=page, hit=False, evicted=tuple(evicted))

    def serve_sequence(self, pages: Iterable[Hashable]) -> int:
        """Serve a whole sequence and return the number of misses incurred."""
        misses = 0
        for page in pages:
            if self.request(page).miss:
                misses += 1
        return misses

    def reset(self) -> None:
        """Empty the cache and reset statistics and policy state."""
        self._cache.clear()
        self.stats = PagingStats()
        self._on_reset()

    def drop(self, page: Hashable) -> bool:
        """Forcibly remove ``page`` from the cache (used by tests/ablations).

        Returns whether the page was present.  Policy bookkeeping is updated
        via :meth:`_on_evict`.
        """
        if page in self._cache:
            self._cache.remove(page)
            self._on_evict(page)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _evict_victim(self) -> Hashable:
        """Return the page to evict; called only when the cache is full."""

    def _on_hit(self, page: Hashable) -> None:
        """Hook invoked on a cache hit."""

    def _on_fetch(self, page: Hashable) -> None:
        """Hook invoked after a page is inserted into the cache."""

    def _on_evict(self, page: Hashable) -> None:
        """Hook invoked after a page is removed from the cache."""

    def _on_reset(self) -> None:
        """Hook invoked by :meth:`reset` to clear policy state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} capacity={self._capacity} cached={len(self._cache)}>"
