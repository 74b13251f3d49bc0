"""Topology abstraction and shared distance-matrix machinery.

A :class:`Topology` holds the fixed (non-reconfigurable) network as a node
list and an edge list (an :class:`EdgeList`, or any graph object with
``nodes()`` and ``edges()`` such as an ``nx.Graph``).  The network may
contain auxiliary switch nodes (aggregation, spine, core); only *rack* nodes
are endpoints of traffic.  Distances between racks are computed once by a
bit-parallel multi-source BFS over the edge list (no BLAS, no dense
adjacency) and stored in a dense, read-only matrix so that per-request
lookups are O(1).  NetworkX is imported only when :attr:`Topology.graph` is
read.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from ..errors import TopologyError
from ..types import NodePair, canonical_pair

__all__ = ["EdgeList", "Topology", "build_distance_matrix"]


class EdgeList:
    """A fixed network as a node list plus an edge list.

    Its ``nodes()`` and ``edges()`` are the part of the ``nx.Graph``
    interface that :class:`Topology` and :func:`build_distance_matrix` read,
    so the built-in topologies need no graph library.
    """

    __slots__ = ("_nodes", "_edges")

    def __init__(self, nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]):
        self._nodes = list(nodes)
        self._edges = list(edges)

    def nodes(self) -> list[Hashable]:
        return self._nodes

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return self._edges


def build_distance_matrix(graph: Any, rack_nodes: Sequence[Hashable]) -> np.ndarray:
    """Compute the all-pairs shortest-path hop counts between rack nodes.

    A level-synchronous breadth-first search runs from every rack at once.
    Each graph node holds a bitset of the racks whose search has reached it,
    ``n`` bits packed into 64-bit words.  One level ORs, for every node, the
    frontier bitsets of its neighbours: the arcs (each edge in both
    directions) are sorted by head node, their tails' bitsets gathered, and
    ``np.bitwise_or.reduceat`` folds each head's run.  Bits not seen before
    form the next frontier, and the new bits at rack nodes give the hop
    counts found at that level.  The gather is the largest working array,
    about ``arcs * n / 8`` bytes (a fat tree of 1000 racks has about 97,000
    arcs: 12 MB); no dense node-by-node adjacency is built.

    Parameters
    ----------
    graph:
        The fixed network, an undirected unweighted graph: an
        :class:`EdgeList` or ``nx.Graph`` (only ``nodes()`` and ``edges()``
        are read).  It must be connected at least on the component
        containing all racks.
    rack_nodes:
        The graph nodes acting as racks, in the order in which they map to
        rack ids ``0 .. n-1``.

    Returns
    -------
    numpy.ndarray
        An ``(n, n)`` float array of hop counts, ``0`` on the diagonal.

    Raises
    ------
    TopologyError
        If some pair of racks is disconnected in the fixed network, a rack
        node is listed twice, or an edge names a node missing from
        ``nodes()``.
    """
    n = len(rack_nodes)
    if n < 2:
        raise TopologyError("a topology needs at least two racks")
    index = {node: i for i, node in enumerate(graph.nodes())}
    try:
        racks = np.array([index[r] for r in rack_nodes], dtype=np.intp)
    except KeyError as exc:  # pragma: no cover - defensive
        raise TopologyError(f"rack node {exc} not present in graph") from exc
    repeated = np.flatnonzero(np.bincount(racks) > 1)
    if len(repeated):  # two rack ids on one node would be at distance 0
        raise TopologyError(f"rack node {list(index)[repeated[0]]!r} is listed more than once")
    try:
        ends = np.array([(index[u], index[v]) for u, v in graph.edges()], dtype=np.intp)
    except KeyError as exc:
        raise TopologyError(f"an edge names node {exc.args[0]!r}, which is not in the graph") from exc
    ends = ends.reshape(-1, 2)  # (0, 2) when there are no edges
    # Every edge as two arcs, sorted by head node so that each head's
    # in-arcs form one run for ``reduceat``.
    heads = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(heads)
    tails = np.concatenate([ends[:, 0], ends[:, 1]])[order]
    heads = heads[order]
    starts = np.flatnonzero(np.diff(heads, prepend=-1))

    # Bit i of a node's row is rack i (little-endian within each byte).
    rack_ids = np.arange(n)
    seen = np.zeros((len(index), -(-n // 64)), dtype=np.uint64)
    bits = np.left_shift(1, rack_ids & 7).astype(np.uint8)
    np.bitwise_or.at(seen.view(np.uint8), (racks, rack_ids >> 3), bits)
    frontier = seen.copy()
    dist = np.full((n, n), np.inf)
    unfound = n * n
    for level in range(len(index)):
        # new[j, i]: the search from rack i first reaches rack j at this
        # level, so dist[j, i] (which equals dist[i, j]) is the level.
        new = np.unpackbits(frontier[racks].view(np.uint8), axis=1, count=n, bitorder="little")
        new = new.view(bool)
        dist[new] = level
        unfound -= int(np.count_nonzero(new))
        if not unfound:
            break
        reached = np.zeros_like(seen)
        reached[heads[starts]] = np.bitwise_or.reduceat(frontier[tails], starts, axis=0)
        frontier = reached & ~seen
        if not frontier.any():
            break
        seen |= frontier
    if unfound:
        raise TopologyError("fixed network does not connect all racks")
    return dist


class Topology:
    """A fixed datacenter network with ``n`` rack endpoints.

    Parameters
    ----------
    graph:
        The fixed network (racks plus any internal switches): an
        :class:`EdgeList`, or an undirected ``nx.Graph``, of which only
        ``nodes()`` and ``edges()`` are read.
    rack_nodes:
        Graph nodes that act as racks / ToR switches, in rack-id order.
    name:
        Human-readable topology name used in results and reports.
    """

    def __init__(self, graph: Any, rack_nodes: Sequence[Hashable], name: str = "custom"):
        if not graph.nodes():
            raise TopologyError("topology graph is empty")
        self._graph = graph
        self._rack_nodes = list(rack_nodes)
        self._name = name
        self._distances = build_distance_matrix(graph, self._rack_nodes)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Topology name."""
        return self._name

    @property
    def n_racks(self) -> int:
        """Number of racks (traffic endpoints)."""
        return len(self._rack_nodes)

    @property
    def graph(self) -> Any:
        """The fixed network as an ``nx.Graph`` (read-only by convention).

        A graph passed in is returned as is.  An :class:`EdgeList` is turned
        into an ``nx.Graph`` on first access, with its node and edge order.
        """
        if isinstance(self._graph, EdgeList):
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self._graph.nodes())
            graph.add_edges_from(self._graph.edges())
            self._graph = graph
        return self._graph

    @property
    def rack_nodes(self) -> list[Hashable]:
        """Graph nodes acting as racks, indexed by rack id."""
        return list(self._rack_nodes)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` matrix of rack-to-rack hop counts, read-only.

        Every algorithm built on this topology indexes the same matrix, and
        built topologies are shared between experiment specs, so the matrix
        is handed out as a read-only view: writing to it raises
        ``ValueError``.  The view is made on every access, so this holds on
        an unpickled copy too.
        """
        view = self._distances.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # Distance queries
    # ------------------------------------------------------------------ #
    def distance(self, u: int, v: int) -> float:
        """Shortest-path hop count ``ℓ_{u,v}`` between racks ``u`` and ``v``."""
        n = self.n_racks
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"rack id out of range: ({u}, {v}) with n={n}")
        return float(self._distances[u, v])

    def pair_length(self, pair: NodePair) -> float:
        """Shortest-path length of a canonical node pair."""
        return self.distance(pair[0], pair[1])

    def distances_for(self, pairs: Iterable[NodePair]) -> np.ndarray:
        """Vectorised lookup of lengths for many pairs at once.

        Raises :class:`TopologyError` as :meth:`distance` does if a rack id
        lies outside ``[0, n)``; a negative id is not read from the end.
        """
        arr = np.asarray(list(pairs), dtype=np.intp)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        n = self.n_racks
        outside = ((arr < 0) | (arr >= n)).any(axis=1)
        if outside.any():
            self.distance(*arr[outside.argmax()])  # raises distance()'s TopologyError
        return self._distances[arr[:, 0], arr[:, 1]]

    def max_distance(self) -> float:
        """``ℓ_max`` — the largest rack-to-rack distance in the fixed network."""
        return float(self._distances.max())

    def mean_distance(self) -> float:
        """Average rack-to-rack distance over distinct pairs."""
        n = self.n_racks
        total = self._distances.sum()  # diagonal is zero
        return float(total / (n * (n - 1)))

    def diameter(self) -> float:
        """Alias of :meth:`max_distance` restricted to racks."""
        return self.max_distance()

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def all_pairs(self) -> list[NodePair]:
        """All canonical rack pairs."""
        n = self.n_racks
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    def validate_pair(self, u: int, v: int) -> NodePair:
        """Canonicalise and range-check a pair of rack ids."""
        if u == v:
            raise TopologyError(f"self-pair ({u}, {v}) is not routable")
        n = self.n_racks
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"rack id out of range: ({u}, {v}) with n={n}")
        return canonical_pair(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self._name!r} racks={self.n_racks}>"
