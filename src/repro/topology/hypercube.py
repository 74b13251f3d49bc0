"""Hypercube topology.

Racks are the vertices of a ``d``-dimensional boolean hypercube (as in BCube /
MDCube-style server-centric designs referenced in the paper's related work).
Distances are Hamming distances, giving a moderate diameter ``d = log2(n)``.
"""

from __future__ import annotations

from itertools import product

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["HypercubeTopology"]


class HypercubeTopology(Topology):
    """``d``-dimensional hypercube with ``2**d`` racks."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise TopologyError(f"hypercube dimension must be >= 1, got {dimension}")
        if dimension > 16:
            raise TopologyError(f"hypercube dimension {dimension} is unreasonably large")
        # Bit tuples in lexicographic order; node i links to the node that
        # sets one of its zero bits, as in ``nx.hypercube_graph``.
        nodes = list(product((0, 1), repeat=dimension))
        edges = [
            (node, nodes[i + (1 << (dimension - 1 - bit))])
            for i, node in enumerate(nodes)
            for bit in range(dimension)
            if not node[bit]
        ]
        if dimension == 1:  # ``nx.hypercube_graph(1)`` labels its nodes 0 and 1
            nodes, edges = [0, 1], [(0, 1)]
        self._dimension = dimension
        super().__init__(EdgeList(nodes, edges), nodes, name=f"hypercube(d={dimension})")

    @property
    def dimension(self) -> int:
        """Number of hypercube dimensions."""
        return self._dimension
