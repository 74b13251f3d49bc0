"""Tests for the non-fat-tree topologies and the registry."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology import (
    ExpanderTopology,
    FatTreeTopology,
    HypercubeTopology,
    LeafSpineTopology,
    RingTopology,
    StarTopology,
    TorusTopology,
    available_topologies,
    make_topology,
)
from repro.topology.registry import TOPOLOGIES

#: Every registered topology at several sizes, both star modes and a seeded
#: expander: (registry name, constructor parameters).
_DIFFERENTIAL_CASES = [
    *[("fat-tree", {"n_racks": n}) for n in (2, 8, 16, 64, 100)],
    ("fat-tree", {"k": 6}),
    *[("leaf-spine", {"n_racks": n, "n_spines": s}) for n, s in ((2, 1), (16, 4), (64, 3))],
    *[("star", {"n_racks": n}) for n in (2, 8, 64)],
    *[("star", {"n_racks": n, "hub_is_rack": True}) for n in (2, 8, 64)],
    *[("ring", {"n_racks": n}) for n in (3, 8, 16, 101)],
    *[("torus", {"rows": r, "cols": c}) for r, c in ((2, 2), (2, 5), (3, 7), (8, 8))],
    *[("hypercube", {"dimension": d}) for d in (1, 2, 3, 6)],
    *[("expander", {"n_racks": n, "degree": d, "seed": 11}) for n, d in ((8, 3), (64, 4), (100, 5))],
]


class TestDistancesAgainstNetworkx:
    def test_cases_cover_every_registered_topology(self):
        covered = {TOPOLOGIES.canonical(name) for name, _ in _DIFFERENTIAL_CASES}
        assert covered == {TOPOLOGIES.canonical(name) for name in available_topologies()}

    @pytest.mark.parametrize(
        "name,params",
        _DIFFERENTIAL_CASES,
        ids=["-".join([n, *(f"{k}={v}" for k, v in p.items())]) for n, p in _DIFFERENTIAL_CASES],
    )
    def test_distance_matrix_matches_all_pairs_bfs(self, name, params):
        topo = make_topology(name, **params)
        lengths = dict(nx.all_pairs_shortest_path_length(topo.graph))
        racks = topo.rack_nodes
        expected = [[lengths[u][v] for v in racks] for u in racks]
        assert topo.distance_matrix.dtype == np.float64
        np.testing.assert_array_equal(topo.distance_matrix, np.array(expected, dtype=np.float64))


def _edge_set(graph) -> set:
    return {frozenset(edge) for edge in graph.edges()}


class TestGraphMatchesNetworkxGenerators:
    """The lazily built ``.graph`` has the nodes and edges the topologies
    were once built from with NetworkX generators."""

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_ring_is_cycle_graph(self, n):
        graph, expected = RingTopology(n_racks=n).graph, nx.cycle_graph(n)
        assert list(graph.nodes()) == list(expected.nodes())
        assert _edge_set(graph) == _edge_set(expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_hypercube_is_hypercube_graph(self, d):
        topo, expected = HypercubeTopology(dimension=d), nx.hypercube_graph(d)
        assert list(topo.graph.nodes()) == list(expected.nodes())
        assert _edge_set(topo.graph) == _edge_set(expected)
        assert topo.rack_nodes == sorted(expected.nodes())

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 5)])
    def test_torus_is_periodic_grid(self, rows, cols):
        graph = TorusTopology(rows=rows, cols=cols).graph
        expected = nx.grid_2d_graph(rows, cols, periodic=True)
        assert list(graph.nodes()) == list(expected.nodes())
        assert _edge_set(graph) == _edge_set(expected)

    def test_star_and_leaf_spine_are_complete_bipartite(self):
        star = StarTopology(n_racks=5).graph
        assert list(star.nodes()) == ["hub"] + [f"rack-{i}" for i in range(5)]
        assert nx.is_isomorphic(star, nx.star_graph(5))
        leaf_spine = LeafSpineTopology(n_racks=6, n_spines=3).graph
        assert nx.is_isomorphic(leaf_spine, nx.complete_bipartite_graph(6, 3))

    def test_fat_tree_switch_counts(self):
        graph = FatTreeTopology(k=4).graph
        assert graph.number_of_nodes() == 4 + 4 * 4  # (k/2)^2 core + k pods of k switches
        assert graph.number_of_edges() == 4**3 // 2
        assert list(graph.nodes())[:4] == [f"core-{i}-{j}" for i in range(2) for j in range(2)]


class TestLeafSpine:
    def test_all_distances_two(self):
        topo = LeafSpineTopology(n_racks=10, n_spines=3)
        assert {topo.distance(u, v) for u, v in topo.all_pairs()} == {2.0}

    def test_spine_count_does_not_change_distances(self):
        a = LeafSpineTopology(n_racks=6, n_spines=1)
        b = LeafSpineTopology(n_racks=6, n_spines=8)
        assert a.max_distance() == b.max_distance() == 2

    def test_rejects_bad_args(self):
        with pytest.raises(TopologyError):
            LeafSpineTopology(n_racks=1)
        with pytest.raises(TopologyError):
            LeafSpineTopology(n_racks=4, n_spines=0)


class TestStar:
    def test_leaf_only_distances(self):
        topo = StarTopology(n_racks=5)
        assert {topo.distance(u, v) for u, v in topo.all_pairs()} == {2.0}

    def test_hub_as_rack_distances(self):
        topo = StarTopology(n_racks=5, hub_is_rack=True)
        assert topo.n_racks == 6
        # Rack 0 is the hub: hub-leaf distance is 1, leaf-leaf is 2.
        assert topo.distance(0, 3) == 1
        assert topo.distance(1, 2) == 2

    def test_rejects_too_small(self):
        with pytest.raises(TopologyError):
            StarTopology(n_racks=1)


class TestRing:
    def test_distances_wrap_around(self):
        topo = RingTopology(n_racks=6)
        assert topo.distance(0, 1) == 1
        assert topo.distance(0, 3) == 3
        assert topo.distance(0, 5) == 1

    def test_diameter(self):
        assert RingTopology(n_racks=8).max_distance() == 4

    def test_rejects_too_small(self):
        with pytest.raises(TopologyError):
            RingTopology(n_racks=2)


class TestTorus:
    def test_manhattan_with_wraparound(self):
        topo = TorusTopology(rows=4, cols=4)
        assert topo.n_racks == 16
        # (0,0) to (2,2): 2 + 2 = 4
        r = topo.rack_nodes.index((0, 0))
        s = topo.rack_nodes.index((2, 2))
        assert topo.distance(r, s) == 4
        # (0,0) to (3,0): wraps around to distance 1
        t = topo.rack_nodes.index((3, 0))
        assert topo.distance(r, t) == 1

    def test_coordinates_roundtrip(self):
        topo = TorusTopology(rows=3, cols=2)
        for rack in range(topo.n_racks):
            assert topo.rack_nodes[rack] == topo.coordinates(rack)

    def test_rejects_thin_torus(self):
        with pytest.raises(TopologyError):
            TorusTopology(rows=1, cols=5)


class TestHypercube:
    def test_size_and_diameter(self):
        topo = HypercubeTopology(dimension=4)
        assert topo.n_racks == 16
        assert topo.max_distance() == 4

    def test_hamming_distance(self):
        topo = HypercubeTopology(dimension=3)
        # Nodes are bit tuples sorted lexicographically: 0 = (0,0,0), 7 = (1,1,1).
        assert topo.distance(0, topo.n_racks - 1) == 3

    def test_rejects_bad_dimension(self):
        with pytest.raises(TopologyError):
            HypercubeTopology(dimension=0)
        with pytest.raises(TopologyError):
            HypercubeTopology(dimension=20)


class TestExpander:
    def test_regular_degree(self):
        topo = ExpanderTopology(n_racks=20, degree=4, seed=1)
        assert all(d == 4 for _n, d in topo.graph.degree())

    def test_connected_and_small_diameter(self):
        topo = ExpanderTopology(n_racks=30, degree=4, seed=2)
        assert topo.max_distance() <= 5

    def test_reproducible_with_seed(self):
        a = ExpanderTopology(n_racks=16, degree=3, seed=7)
        b = ExpanderTopology(n_racks=16, degree=3, seed=7)
        assert (a.distance_matrix == b.distance_matrix).all()

    def test_rejects_odd_product(self):
        with pytest.raises(TopologyError):
            ExpanderTopology(n_racks=7, degree=3)

    def test_rejects_degree_too_large(self):
        with pytest.raises(TopologyError):
            ExpanderTopology(n_racks=5, degree=5)


class TestRegistry:
    def test_lists_known_names(self):
        names = available_topologies()
        for expected in ("fat-tree", "leaf-spine", "star", "ring", "torus", "hypercube", "expander"):
            assert expected in names

    def test_make_topology(self):
        topo = make_topology("leaf-spine", n_racks=6)
        assert topo.n_racks == 6

    def test_make_topology_case_insensitive(self):
        topo = make_topology("Fat-Tree", n_racks=8)
        assert topo.n_racks == 8

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_topology("does-not-exist", n_racks=4)
