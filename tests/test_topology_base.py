"""Tests for the Topology base class and distance-matrix construction."""

import pickle
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    EdgeList,
    FatTreeTopology,
    HypercubeTopology,
    Topology,
    available_topologies,
    build_distance_matrix,
    make_topology,
)
from repro.topology.registry import TOPOLOGIES


def _nx_distances(graph, racks) -> np.ndarray:
    """Rack-to-rack hop counts from NetworkX's own BFS."""
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    return np.array([[lengths[u][v] for v in racks] for u in racks], dtype=np.float64)


def _reference_distances(graph, racks) -> np.ndarray:
    """Rack-to-rack hop counts from one plain queue BFS per rack."""
    neighbours = {node: [] for node in graph.nodes()}
    for u, v in graph.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    dist = np.full((len(racks), len(racks)), np.inf)
    for i, source in enumerate(racks):
        hops = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in neighbours[node]:
                if other not in hops:
                    hops[other] = hops[node] + 1
                    queue.append(other)
        dist[i] = [hops.get(rack, np.inf) for rack in racks]
    return dist


def _random_wiring(seed: int):
    """A seeded random network and a rack set that it connects.

    Nodes are ints or strings; some non-rack nodes stay isolated, and the
    edge list carries self-loops and duplicate edges.  The racks are a
    strict subset of the nodes, joined by a random path through them and
    some switches, plus random extra edges.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(3, 70))
    labels = [f"n{i}" for i in range(n_nodes)] if seed % 2 else list(range(n_nodes))
    labels = [labels[i] for i in rng.permutation(n_nodes)]
    n_isolated = int(rng.integers(0, max(1, n_nodes // 5)))
    wired = labels[n_isolated:]
    n_racks = int(rng.integers(2, len(wired)))
    racks = [wired[i] for i in rng.permutation(len(wired))[:n_racks]]
    path = [wired[i] for i in rng.permutation(len(wired))]
    edges = list(zip(path, path[1:]))
    n_extra = int(rng.integers(0, 2 * len(wired)))
    edges += [
        (wired[i], wired[j]) for i, j in rng.integers(0, len(wired), size=(n_extra, 2))
    ]
    edges += [(wired[i], wired[i]) for i in rng.integers(0, len(wired), size=3)]
    edges += [edges[i] for i in rng.integers(0, len(edges), size=4)]
    order = rng.permutation(len(edges))
    return EdgeList(labels, [edges[i] for i in order]), racks


#: Every registered family at about 100 racks (128 for the hypercube) and a
#: second size: (registry name, constructor parameters).
_FAMILY_SIZES = {
    "fat-tree": [{"n_racks": 100}, {"n_racks": 50}],
    "leaf-spine": [{"n_racks": 100}, {"n_racks": 50, "n_spines": 2}],
    "star": [{"n_racks": 100}, {"n_racks": 50, "hub_is_rack": True}],
    "ring": [{"n_racks": 100}, {"n_racks": 51}],
    "torus": [{"rows": 10, "cols": 10}, {"rows": 5, "cols": 11}],
    "hypercube": [{"dimension": 7}, {"dimension": 6}],
    "expander": [{"n_racks": 100, "seed": 3}, {"n_racks": 50, "degree": 3, "seed": 4}],
}


def _path_graph_topology(n: int) -> Topology:
    g = nx.path_graph(n)
    return Topology(g, list(range(n)), name="path")


class TestBuildDistanceMatrix:
    def test_path_graph_distances(self):
        g = nx.path_graph(5)
        dist = build_distance_matrix(g, [0, 2, 4])
        assert dist.shape == (3, 3)
        assert dist[0, 1] == 2
        assert dist[0, 2] == 4
        assert dist[1, 2] == 2
        assert np.all(np.diag(dist) == 0)

    def test_symmetric(self):
        g = nx.erdos_renyi_graph(12, 0.4, seed=1)
        g.add_edges_from((i, i + 1) for i in range(11))  # ensure connectivity
        dist = build_distance_matrix(g, list(range(12)))
        assert np.allclose(dist, dist.T)

    def test_disconnected_racks_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(TopologyError):
            build_distance_matrix(g, [0, 2])

    def test_single_rack_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError):
            build_distance_matrix(g, [0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_bfs_on_random_graphs(self, seed):
        # Sparse random graphs with a connecting path, racks a shuffled
        # subset of the nodes, so switches sit between some racks.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        g = nx.gnp_random_graph(n, 3.0 / n, seed=seed)
        g.add_edges_from(nx.utils.pairwise(rng.permutation(n).tolist()))
        racks = rng.permutation(n)[: max(2, n // 2)].tolist()
        dist = build_distance_matrix(g, racks)
        assert dist.dtype == np.float64
        np.testing.assert_array_equal(dist, _nx_distances(g, racks))

    def test_edge_list_matches_graph(self):
        g = nx.petersen_graph()
        wiring = EdgeList(g.nodes(), g.edges())
        np.testing.assert_array_equal(
            build_distance_matrix(wiring, [0, 3, 7, 9]), build_distance_matrix(g, [0, 3, 7, 9])
        )

    def test_disconnected_edge_list_rejected(self):
        with pytest.raises(TopologyError):
            build_distance_matrix(EdgeList(range(4), [(0, 1), (2, 3)]), [0, 3])

    def test_large_sizes_still_build(self):
        # The BFS gathers one packed rack bitset per arc: about 12 MB for
        # the 97,000 arcs of a 1000-rack fat tree, next to the 8 MB result.
        tracemalloc.start()
        try:
            fat = FatTreeTopology(n_racks=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert fat.distance_matrix.shape == (1000, 1000)
        assert set(np.unique(fat.distance_matrix).tolist()) == {0.0, 2.0, 4.0}
        cube = HypercubeTopology(dimension=10)
        xor = np.arange(1024)[:, None] ^ np.arange(1024)[None, :]
        hamming = sum((xor >> bit) & 1 for bit in range(10)).astype(np.float64)
        np.testing.assert_array_equal(cube.distance_matrix, hamming)


class TestAgainstReferenceBFS:
    """The bit-parallel builder against one queue BFS per rack."""

    @pytest.mark.parametrize("seed", range(200))
    def test_random_wirings(self, seed):
        wiring, racks = _random_wiring(seed)
        dist = build_distance_matrix(wiring, racks)
        assert dist.dtype == np.float64
        np.testing.assert_array_equal(dist, _reference_distances(wiring, racks))

    @pytest.mark.parametrize("seed", range(0, 200, 20))
    def test_random_graphs_as_networkx(self, seed):
        wiring, racks = _random_wiring(seed)
        graph = nx.Graph()
        graph.add_nodes_from(wiring.nodes())
        graph.add_edges_from(wiring.edges())
        np.testing.assert_array_equal(
            build_distance_matrix(graph, racks), _reference_distances(wiring, racks)
        )

    def test_family_sizes_cover_every_registered_topology(self):
        assert set(_FAMILY_SIZES) == {TOPOLOGIES.canonical(n) for n in available_topologies()}

    @pytest.mark.parametrize(
        "name,params",
        [(name, params) for name, sizes in _FAMILY_SIZES.items() for params in sizes],
    )
    def test_every_family(self, name, params):
        topo = make_topology(name, **params)
        np.testing.assert_array_equal(
            topo.distance_matrix, _reference_distances(topo.graph, topo.rack_nodes)
        )

    def test_rack_word_boundaries(self):
        # 63, 64, 65 and 129 racks on a path: the last rack bits of a word.
        for n in (63, 64, 65, 129):
            wiring = EdgeList(range(n), [(i, i + 1) for i in range(n - 1)])
            racks = list(range(n))[::-1]
            np.testing.assert_array_equal(
                build_distance_matrix(wiring, racks), _reference_distances(wiring, racks)
            )

    def test_disconnected_racks_keep_their_message(self):
        wiring = EdgeList(range(6), [(0, 1), (1, 2), (3, 4), (5, 5)])
        with pytest.raises(TopologyError, match="^fixed network does not connect all racks$"):
            build_distance_matrix(wiring, [0, 2, 4])
        with pytest.raises(TopologyError, match="^fixed network does not connect all racks$"):
            build_distance_matrix(EdgeList(range(3), []), [0, 1])

    def test_edge_to_a_node_missing_from_the_graph_is_rejected(self):
        with pytest.raises(TopologyError, match="names node 2, which is not in the graph"):
            build_distance_matrix(EdgeList([0, 1], [(0, 2)]), [0, 1])
        with pytest.raises(TopologyError, match="names node 'z'"):
            build_distance_matrix(EdgeList(["a", "b"], [("a", "b"), ("z", "a")]), ["a", "b"])

    def test_duplicate_rack_nodes_are_rejected(self):
        with pytest.raises(TopologyError, match="rack node 0 is listed more than once"):
            Topology(EdgeList([0, 1], [(0, 1)]), [0, 0])
        with pytest.raises(TopologyError, match="rack node 'b' is listed more than once"):
            build_distance_matrix(EdgeList("abc", [("a", "b"), ("b", "c")]), ["a", "b", "c", "b"])

    @pytest.mark.parametrize("racks", [[], [0]])
    def test_fewer_than_two_racks_keep_their_message(self, racks):
        with pytest.raises(TopologyError, match="^a topology needs at least two racks$"):
            build_distance_matrix(EdgeList(range(3), [(0, 1), (1, 2)]), racks)


class TestTopology:
    def test_basic_accessors(self):
        topo = _path_graph_topology(6)
        assert topo.n_racks == 6
        assert topo.name == "path"
        assert topo.distance(0, 5) == 5
        assert topo.pair_length((1, 4)) == 3

    def test_distance_symmetric(self):
        topo = _path_graph_topology(6)
        assert topo.distance(2, 5) == topo.distance(5, 2)

    def test_distance_out_of_range(self):
        topo = _path_graph_topology(4)
        with pytest.raises(TopologyError):
            topo.distance(0, 4)

    def test_max_and_mean_distance(self):
        topo = _path_graph_topology(4)
        assert topo.max_distance() == 3
        # Pairs: (0,1)=1 (0,2)=2 (0,3)=3 (1,2)=1 (1,3)=2 (2,3)=1 -> mean 10/6
        assert topo.mean_distance() == pytest.approx(10 / 6)

    def test_diameter_alias(self):
        topo = _path_graph_topology(5)
        assert topo.diameter() == topo.max_distance() == 4

    def test_distances_for_vectorised(self):
        topo = _path_graph_topology(5)
        pairs = [(0, 1), (0, 4), (2, 3)]
        np.testing.assert_allclose(topo.distances_for(pairs), [1, 4, 1])

    def test_distances_for_empty(self):
        topo = _path_graph_topology(3)
        assert topo.distances_for([]).size == 0

    @pytest.mark.parametrize("pair", [(-1, 3), (3, -1), (0, 8), (8, 0), (9, 9)])
    def test_distances_for_rejects_ids_outside_the_racks(self, pair):
        # A negative id must not read rack n-1's distances.
        topo = FatTreeTopology(n_racks=8)
        with pytest.raises(TopologyError) as raised:
            topo.distances_for([(0, 1), pair])
        with pytest.raises(TopologyError) as expected:
            topo.distance(*pair)
        assert str(raised.value) == str(expected.value)

    def test_distance_matrix_is_read_only(self):
        topo = FatTreeTopology(n_racks=8)
        for holder in (topo, pickle.loads(pickle.dumps(topo))):
            with pytest.raises(ValueError):
                holder.distance_matrix[0, 1] = 99
            assert holder.distance(0, 1) == 2.0

    def test_all_pairs_count(self):
        topo = _path_graph_topology(5)
        assert len(topo.all_pairs()) == 10

    def test_validate_pair_canonicalises(self):
        topo = _path_graph_topology(5)
        assert topo.validate_pair(4, 1) == (1, 4)

    def test_validate_pair_rejects_self(self):
        topo = _path_graph_topology(5)
        with pytest.raises(TopologyError):
            topo.validate_pair(2, 2)

    def test_validate_pair_rejects_out_of_range(self):
        topo = _path_graph_topology(5)
        with pytest.raises(TopologyError):
            topo.validate_pair(0, 7)

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph(), [], name="empty")
        with pytest.raises(TopologyError):
            Topology(EdgeList([], []), [], name="empty")

    def test_graph_passed_in_is_returned(self):
        g = nx.path_graph(4)
        assert Topology(g, list(range(4))).graph is g

    def test_edge_list_graph_built_on_first_access(self):
        topo = Topology(EdgeList(["a", "b", "c"], [("b", "c"), ("a", "b")]), ["a", "c"])
        assert topo.distance(0, 1) == 2
        graph = topo.graph
        assert isinstance(graph, nx.Graph)
        assert list(graph.nodes()) == ["a", "b", "c"]
        assert {frozenset(e) for e in graph.edges()} == {frozenset("bc"), frozenset("ab")}
        assert topo.graph is graph

    def test_distance_matrix_shape(self):
        topo = _path_graph_topology(7)
        assert topo.distance_matrix.shape == (7, 7)
