"""Factories for paging policies, addressed by name.

R-BMA takes a *paging factory* — a callable ``(capacity, rng) -> PagingAlgorithm``
— so the ablation benchmarks can swap the policy driving each per-node cache
without touching the matching logic.  The name → factory mapping is an
instance of the generic :class:`repro.experiments.Registry`; note that
:func:`make_paging_factory` *resolves* (returns the factory) rather than
builds, because R-BMA instantiates one paging instance per rack lazily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..experiments.registry import Registry
from .base import PagingAlgorithm
from .fifo import FIFOPaging
from .lfu import LFUPaging
from .lru import LRUPaging
from .marking import RandomizedMarking
from .random_eviction import RandomEvictionPaging

if TYPE_CHECKING:
    from ..core.rng import CounterRNG

__all__ = [
    "PAGING_POLICIES",
    "PagingFactory",
    "make_paging_factory",
    "available_paging_policies",
    "register_paging_policy",
]

#: Signature of a paging factory: capacity and an optional RNG.
PagingFactory = Callable[[int, Optional["CounterRNG"]], PagingAlgorithm]

#: The paging-policy registry; entries are *factories*, not instances.
PAGING_POLICIES: Registry[PagingAlgorithm] = Registry("paging policy")


def _random(capacity: int, rng: Optional[CounterRNG]) -> PagingAlgorithm:
    return RandomEvictionPaging(capacity, rng=rng)


def _lru(capacity: int, rng: Optional[CounterRNG]) -> PagingAlgorithm:
    return LRUPaging(capacity)


def _fifo(capacity: int, rng: Optional[CounterRNG]) -> PagingAlgorithm:
    return FIFOPaging(capacity)


def _lfu(capacity: int, rng: Optional[CounterRNG]) -> PagingAlgorithm:
    return LFUPaging(capacity)


def register_paging_policy(name: str, factory: PagingFactory) -> None:
    """Register a paging factory under ``name`` (lower-cased)."""
    PAGING_POLICIES.register(name, factory)


def available_paging_policies() -> list[str]:
    """Names of the registered paging policies."""
    return PAGING_POLICIES.names()


def make_paging_factory(name: str) -> PagingFactory:
    """Return the paging factory registered under ``name``."""
    return PAGING_POLICIES.resolve(name)


# The class itself is the factory: a matcher that holds it knows every pager
# is exactly a RandomizedMarking (see repro.core.uniform.serve_specials).
PAGING_POLICIES.register("marking", RandomizedMarking)
PAGING_POLICIES.register("random", _random)
PAGING_POLICIES.register("lru", _lru)
PAGING_POLICIES.register("fifo", _fifo)
PAGING_POLICIES.register("lfu", _lfu)
