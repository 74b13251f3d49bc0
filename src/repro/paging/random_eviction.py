"""Uniform random eviction paging.

Evicts a uniformly random cached page on every miss with a full cache.  It is
``k``-competitive (no better than deterministic policies) and serves as the
"naive randomization" control against the marking algorithm in ablations: the
power of randomization in the paper comes from marking's phase structure, not
from randomness alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Union

from .base import PagingAlgorithm, coerce_paging_rng

if TYPE_CHECKING:
    from ..core.rng import CounterRNG

__all__ = ["RandomEvictionPaging"]


class RandomEvictionPaging(PagingAlgorithm):
    """Evict a uniformly random cached page.

    ``rng`` follows the same contract as
    :class:`~repro.paging.marking.RandomizedMarking`: ``None``, an int seed
    or a :class:`~repro.core.rng.CounterRNG`; anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, capacity: int, rng: Optional[Union[int, CounterRNG]] = None):
        super().__init__(capacity)
        self._rng = coerce_paging_rng(rng)
        self._draw_index = 0

    def _evict_victim(self) -> Hashable:
        candidates = sorted(self._cache, key=repr)
        idx = self._rng.integers(len(candidates), self._draw_index)
        self._draw_index += 1
        return candidates[idx]

    def _on_reset(self) -> None:
        self._draw_index = 0
