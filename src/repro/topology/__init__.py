"""Static (fixed) datacenter network topologies.

The fixed network determines the routing cost ``ℓ_e`` of every node pair
``e = {u, v}``: the shortest-path hop count between the two racks when the
request is *not* served by a reconfigurable matching edge.

All topologies expose the same interface (:class:`~repro.topology.base.Topology`):
a set of ``n`` racks identified by ``0 .. n-1`` and a dense, precomputed
rack-to-rack distance matrix, so the simulation hot path never touches a
graph library.  The built-in topologies are plain node and edge lists
(:class:`~repro.topology.base.EdgeList`); NetworkX is imported only to
wire an ``expander`` or when ``Topology.graph`` is read.
"""

from .base import EdgeList, Topology, build_distance_matrix
from .fattree import FatTreeTopology
from .leafspine import LeafSpineTopology
from .star import StarTopology
from .ring import RingTopology
from .torus import TorusTopology
from .hypercube import HypercubeTopology
from .expander import ExpanderTopology
from .registry import available_topologies, make_topology, register_topology

__all__ = [
    "EdgeList",
    "Topology",
    "build_distance_matrix",
    "FatTreeTopology",
    "LeafSpineTopology",
    "StarTopology",
    "RingTopology",
    "TorusTopology",
    "HypercubeTopology",
    "ExpanderTopology",
    "available_topologies",
    "make_topology",
    "register_topology",
]
