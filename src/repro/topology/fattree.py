"""k-ary fat-tree topology (Al-Fares et al., SIGCOMM 2008).

The paper's simulations use "a typical fat-tree based datacenter topology,
with 100 nodes in the case of the Facebook clusters, and with 50 nodes in the
case of the Microsoft cluster", where nodes are racks / ToR switches.  In a
k-ary fat tree there are ``k`` pods, each with ``k/2`` edge (ToR) switches and
``k/2`` aggregation switches, plus ``(k/2)^2`` core switches.  Rack-to-rack
hop counts are 2 within a pod and 4 across pods, which is exactly the cost
structure the paper's routing-cost curves are built on.

:class:`FatTreeTopology` either takes the fat-tree arity ``k`` directly or a
desired number of racks, in which case the smallest even ``k`` with
``k^2/2 >= n_racks`` is chosen and only the first ``n_racks`` ToR switches are
used as traffic endpoints (the remaining switches still exist and carry
transit traffic).
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["FatTreeTopology"]


def _fat_tree_graph(k: int) -> tuple[EdgeList, list[str]]:
    """Build the k-ary fat-tree switch graph and return it with its ToR list."""
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity k must be an even integer >= 2, got {k}")
    half = k // 2
    nodes = [f"core-{i}-{j}" for i in range(half) for j in range(half)]
    links: list[tuple[str, str]] = []
    tor_nodes: list[str] = []
    for pod in range(k):
        aggs = [f"agg-{pod}-{a}" for a in range(half)]
        edges = [f"edge-{pod}-{e}" for e in range(half)]
        nodes += aggs
        nodes += edges
        tor_nodes.extend(edges)
        # Full bipartite connection between edge and aggregation inside a pod.
        links += [(agg, edge) for agg in aggs for edge in edges]
        # Aggregation switch a of every pod connects to core group a.
        links += [(agg, f"core-{a}-{j}") for a, agg in enumerate(aggs) for j in range(half)]
    return EdgeList(nodes, links), tor_nodes


class FatTreeTopology(Topology):
    """Fat-tree fixed network with racks attached at the edge layer.

    Parameters
    ----------
    n_racks:
        Number of racks to expose as traffic endpoints.  Mutually exclusive
        with ``k`` only in the sense that if both are given, ``k`` must be
        large enough to host ``n_racks`` ToR switches.
    k:
        Fat-tree arity (even).  If omitted, the smallest adequate arity for
        ``n_racks`` is selected.
    """

    def __init__(self, n_racks: Optional[int] = None, k: Optional[int] = None):
        if n_racks is None and k is None:
            raise TopologyError("either n_racks or k must be provided")
        if k is None:
            assert n_racks is not None
            if n_racks < 2:
                raise TopologyError(f"need at least 2 racks, got {n_racks}")
            # Smallest even k with k^2/2 >= n_racks.
            k = max(2, 2 * math.ceil(math.sqrt(n_racks / 2.0)))
            while k * k // 2 < n_racks:
                k += 2
        if n_racks is None:
            n_racks = k * k // 2
        if k * k // 2 < n_racks:
            raise TopologyError(
                f"a {k}-ary fat tree has only {k * k // 2} ToR switches, cannot host {n_racks} racks"
            )
        graph, tors = _fat_tree_graph(k)
        self._k = k
        super().__init__(graph, tors[:n_racks], name=f"fat-tree(k={k}, racks={n_racks})")

    @property
    def k(self) -> int:
        """Fat-tree arity."""
        return self._k

    @property
    def n_pods(self) -> int:
        """Number of pods."""
        return self._k

    def pod_of(self, rack: int) -> int:
        """Pod index hosting the given rack."""
        node = self.rack_nodes[rack]
        return int(str(node).split("-")[1])
