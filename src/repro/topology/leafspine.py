"""Two-tier leaf-spine (folded Clos) topology.

Every leaf (ToR) switch connects to every spine switch, so any two racks are
exactly two hops apart.  This is the simplest "typical" datacenter fabric and
a useful control: with a constant ``ℓ_e = 2`` the benefit of a matching edge
is the same for every pair, isolating the temporal-structure effects of the
online algorithms from distance heterogeneity.
"""

from __future__ import annotations

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["LeafSpineTopology"]


class LeafSpineTopology(Topology):
    """Leaf-spine fixed network.

    Parameters
    ----------
    n_racks:
        Number of leaf (ToR) switches, i.e. traffic endpoints.
    n_spines:
        Number of spine switches (default 4).  The value does not change
        rack-to-rack distances (always 2) but is kept to model realistic
        fabric sizes in reports.
    """

    def __init__(self, n_racks: int, n_spines: int = 4):
        if n_racks < 2:
            raise TopologyError(f"need at least 2 racks, got {n_racks}")
        if n_spines < 1:
            raise TopologyError(f"need at least 1 spine switch, got {n_spines}")
        leaves = [f"leaf-{i}" for i in range(n_racks)]
        spines = [f"spine-{j}" for j in range(n_spines)]
        g = EdgeList(leaves + spines, [(leaf, spine) for leaf in leaves for spine in spines])
        self._n_spines = n_spines
        super().__init__(g, leaves, name=f"leaf-spine(racks={n_racks}, spines={n_spines})")

    @property
    def n_spines(self) -> int:
        """Number of spine switches."""
        return self._n_spines
