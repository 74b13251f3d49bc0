"""Tests for the Topology base class and distance-matrix construction."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    EdgeList,
    FatTreeTopology,
    HypercubeTopology,
    Topology,
    build_distance_matrix,
)


def _nx_distances(graph, racks) -> np.ndarray:
    """Rack-to-rack hop counts from NetworkX's own BFS."""
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    return np.array([[lengths[u][v] for v in racks] for u in racks], dtype=np.float64)


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
        # The dense float32 adjacency is N**2 for N graph nodes (about 3x
        # the distance matrix on a fat tree); sizes that built with a sparse
        # BFS must still build.
        fat = FatTreeTopology(n_racks=1000)
        assert fat.distance_matrix.shape == (1000, 1000)
        assert set(np.unique(fat.distance_matrix).tolist()) == {0.0, 2.0, 4.0}
        cube = HypercubeTopology(dimension=10)
        xor = np.arange(1024)[:, None] ^ np.arange(1024)[None, :]
        hamming = sum((xor >> bit) & 1 for bit in range(10)).astype(np.float64)
        np.testing.assert_array_equal(cube.distance_matrix, hamming)


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
