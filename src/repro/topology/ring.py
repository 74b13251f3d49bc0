"""Ring topology.

Racks form a cycle; the distance between racks ``u`` and ``v`` is
``min(|u-v|, n-|u-v|)``.  The ring has a large diameter (``⌊n/2⌋``), which
stresses the ``ℓ_max/α`` term of the competitive bound and the non-uniform
reduction (Theorem 1) more than datacenter fabrics do, so it is used in tests
and ablations rather than in the headline experiments.
"""

from __future__ import annotations

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["RingTopology"]


class RingTopology(Topology):
    """Cycle of ``n_racks`` racks, each directly linked to its two neighbours."""

    def __init__(self, n_racks: int):
        if n_racks < 3:
            raise TopologyError(f"a ring needs at least 3 racks, got {n_racks}")
        racks = list(range(n_racks))
        g = EdgeList(racks, [(i, (i + 1) % n_racks) for i in racks])
        super().__init__(g, racks, name=f"ring(racks={n_racks})")
