"""Star topology.

A single hub connects all racks; every rack pair is two hops apart.  The star
is the graph used in the paper's lower-bound construction (Lemma 1): requests
to pairs ``{v0, vi}`` on a star emulate paging with bypassing.  For that
construction the *hub itself* is a rack, so pairs involving the hub have
length 1 — :class:`StarTopology` supports both variants through
``hub_is_rack``.
"""

from __future__ import annotations

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["StarTopology"]


class StarTopology(Topology):
    """Star fixed network.

    Parameters
    ----------
    n_racks:
        Number of racks (excluding the hub unless ``hub_is_rack``).
    hub_is_rack:
        If true, the hub is rack 0 and the leaves are racks ``1..n_racks``;
        this is the lower-bound construction of Lemma 1 where the leaf-hub
        distance is 1.  If false (default), the hub is an internal switch
        and every rack pair has distance 2.
    """

    def __init__(self, n_racks: int, hub_is_rack: bool = False):
        if n_racks < 2:
            raise TopologyError(f"need at least 2 racks, got {n_racks}")
        hub = "hub"
        leaves = [f"rack-{i}" for i in range(n_racks)]
        g = EdgeList([hub] + leaves, [(hub, leaf) for leaf in leaves])
        if hub_is_rack:
            racks = [hub] + leaves
            name = f"star(hub+leaves={n_racks})"
        else:
            racks = leaves
            name = f"star(racks={n_racks})"
        self._hub_is_rack = hub_is_rack
        super().__init__(g, racks, name=name)

    @property
    def hub_is_rack(self) -> bool:
        """Whether the hub participates as rack 0."""
        return self._hub_is_rack
