"""Belady's offline optimal paging algorithm (MIN / furthest-in-future).

Given the entire request sequence in advance, evicting the cached page whose
next request is furthest in the future minimises the number of faults.  The
analysis and tests use it as the offline optimum ``Opt(I_v)`` of the per-node
paging instances in Theorem 2 and as a yardstick for empirical competitive
ratios of the online policies.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Hashable, Sequence, Tuple

from ..errors import PagingError
from .base import PagingAlgorithm

__all__ = ["BeladyPaging", "offline_paging_cost"]


class BeladyPaging(PagingAlgorithm):
    """Furthest-in-future eviction over a known request sequence.

    Parameters
    ----------
    capacity:
        Cache size.
    sequence:
        The complete request sequence this instance will be driven with.
        Requests must be issued (via :meth:`request`, or :meth:`hit` and
        :meth:`miss`) in exactly this order; deviating raises
        :class:`~repro.errors.PagingError`.
    """

    def __init__(self, capacity: int, sequence: Sequence[Hashable]):
        super().__init__(capacity)
        self._sequence = list(sequence)
        # Precompute, for each position, the queue of future positions of
        # every page, so victim selection is O(cache size) per miss.
        self._positions: dict[Hashable, deque[int]] = defaultdict(deque)
        for i, page in enumerate(self._sequence):
            self._positions[page].append(i)
        self._cursor = 0

    def hit(self, page: Hashable) -> bool:
        if page not in self._cache:
            return False
        self._advance(page)
        return super().hit(page)

    def miss(self, page: Hashable) -> Tuple[Hashable, ...]:
        # A cached page is refused by the base miss() and must not consume
        # the sequence; every other request is checked here or in hit().
        if page not in self._cache:
            self._advance(page)
        return super().miss(page)

    def _advance(self, page: Hashable) -> None:
        """Check ``page`` against the known sequence and move the cursor past it."""
        if self._cursor >= len(self._sequence):
            raise PagingError("BeladyPaging received more requests than its known sequence")
        expected = self._sequence[self._cursor]
        if page != expected:
            raise PagingError(
                f"BeladyPaging expected request {expected!r} at position {self._cursor}, got {page!r}"
            )
        # Consume this occurrence before serving so "next use" looks forward.
        queue = self._positions[page]
        if queue and queue[0] == self._cursor:
            queue.popleft()
        self._cursor += 1

    def _next_use(self, page: Hashable) -> int:
        queue = self._positions.get(page)
        if queue:
            return queue[0]
        return len(self._sequence) + 1  # never used again

    def _evict_victim(self) -> Hashable:
        # Furthest next use; ties broken deterministically by repr for
        # reproducibility.
        return max(self._cache, key=lambda p: (self._next_use(p), repr(p)))

    def _on_reset(self) -> None:
        self._positions = defaultdict(deque)
        for i, page in enumerate(self._sequence):
            self._positions[page].append(i)
        self._cursor = 0


def offline_paging_cost(sequence: Sequence[Hashable], capacity: int) -> int:
    """Number of faults of the offline optimal policy on ``sequence``.

    Convenience wrapper that drives :class:`BeladyPaging` over the whole
    sequence and returns its miss count.
    """
    algo = BeladyPaging(capacity, sequence)
    return algo.serve_sequence(sequence)
