"""Kernel-level differential test: ``max_weight_matching_arrays`` vs NetworkX.

The array kernel promises the *same* matching as ``nx.max_weight_matching``
on a graph whose nodes are ``0..n-1`` and whose edges were inserted in the
same order — not merely one of equal weight.  This file calls both
functions directly and compares the matchings on:

* the classic blossom cases of NetworkX's own matching tests (S- and
  T-blossoms, nested relabel and expand, the "nasty" blossoms, recursive
  expansion), which reach the delta4 and T-blossom expansion paths that
  random demand graphs rarely hit;
* seeded random graphs up to n = 60 with heavily tied weights, in integer,
  integral-float and mixed int/float form, in shuffled edge order and with
  random endpoint orientation;
* the kernel's own input checks (invalid and duplicate edges).
"""

import math
import random

import networkx as nx
import pytest

from repro.matching.blossom import max_weight_matching_arrays

pytestmark = pytest.mark.solver


def _nx_matching(n, edges, maxcardinality=False):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    matching = nx.max_weight_matching(g, maxcardinality=maxcardinality)
    return {(min(u, v), max(u, v)) for u, v in matching}


def _assert_same(n, edges, maxcardinality=False):
    ours = max_weight_matching_arrays(n, edges, maxcardinality=maxcardinality)
    assert ours == _nx_matching(n, edges, maxcardinality)
    return ours


# (edges with 1-based vertices as in NetworkX's tests, optimum matching)
CLASSIC = {
    "path": ([(1, 2, 5), (2, 3, 11), (3, 4, 5)], {(2, 3)}),
    "square": ([(1, 4, 2), (2, 3, 2), (1, 2, 1), (3, 4, 4)], {(1, 2), (3, 4)}),
    "s_blossom": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)],
        {(1, 2), (3, 4)},
    ),
    "s_blossom_augment": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom_reweighted": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (1, 6, 4)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom_moved_edge": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
        {(1, 2), (3, 6), (4, 5)},
    ),
    "nested_s_blossom": (
        [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10),
         (5, 6, 6)],
        {(1, 3), (2, 4), (5, 6)},
    ),
    "nested_s_blossom_relabel": (
        [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20),
         (4, 5, 25), (5, 6, 10), (6, 7, 10), (7, 8, 8)],
        {(1, 2), (3, 4), (5, 6), (7, 8)},
    ),
    "nested_s_blossom_expand": (
        [(1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14),
         (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12)],
        {(1, 2), (3, 5), (4, 6), (7, 8)},
    ),
    "s_blossom_relabel_expand": (
        [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22),
         (4, 5, 25), (4, 8, 14), (5, 7, 13)],
        {(1, 6), (2, 3), (4, 8), (5, 7)},
    ),
    "nested_s_blossom_relabel_expand": (
        [(1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18),
         (4, 5, 13), (4, 7, 7), (5, 6, 7)],
        {(1, 8), (2, 3), (4, 7), (5, 6)},
    ),
    "nasty_blossom1": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom2": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom_least_slack": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom_augmenting": (
        [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
         (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36),
         (7, 10, 26), (11, 12, 5)],
        {(1, 8), (2, 3), (4, 6), (5, 9), (7, 10), (11, 12)},
    ),
    "nasty_blossom_expand_recursively": (
        [(1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
         (1, 8, 15), (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30)],
        {(1, 2), (3, 5), (4, 9), (6, 7), (8, 10)},
    ),
}


def _zero_based(edges, expected):
    n = max(max(u, v) for u, v, _w in edges)
    shifted = [(u - 1, v - 1, w) for u, v, w in edges]
    return n, shifted, {(u - 1, v - 1) for u, v in expected}


@pytest.mark.parametrize("weight_type", [int, float])
@pytest.mark.parametrize("case", sorted(CLASSIC))
def test_classic_blossom_cases(case, weight_type):
    n, edges, expected = _zero_based(*CLASSIC[case])
    edges = [(u, v, weight_type(w)) for u, v, w in edges]
    assert _assert_same(n, edges) == expected


@pytest.mark.parametrize("case", sorted(CLASSIC))
def test_classic_cases_in_reversed_edge_order(case):
    n, edges, expected = _zero_based(*CLASSIC[case])
    reversed_edges = [(v, u, w) for u, v, w in reversed(edges)]
    assert _assert_same(n, reversed_edges) == expected


def test_floating_point_weights():
    edges = [(0, 1, math.pi), (1, 2, math.exp(1)), (0, 2, 3.0),
             (0, 3, math.sqrt(2.0))]
    assert _assert_same(4, edges) == {(0, 3), (1, 2)}


def test_negative_weights_with_and_without_max_cardinality():
    edges = [(0, 1, 2), (0, 2, -2), (1, 2, 1), (1, 3, -1), (2, 3, -6)]
    assert _assert_same(4, edges) == {(0, 1)}
    assert _assert_same(4, edges, maxcardinality=True) == {(0, 2), (1, 3)}


def test_trivial_inputs():
    assert max_weight_matching_arrays(0, []) == set()
    assert _assert_same(5, []) == set()
    assert _assert_same(3, [(2, 0, 1)]) == {(0, 2)}


def _random_edges(rng, n, form):
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    rng.shuffle(pairs)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    # Few distinct weights, so most comparisons in the kernel are ties.
    levels = rng.choice((2, 3, 5, 50))
    edges = []
    for u, v in pairs:
        w = rng.randint(1, levels)
        if form == "float" or (form == "mixed" and rng.random() < 0.5):
            w = float(w)
        edges.append((u, v, w))
    return edges


@pytest.mark.parametrize("form", ["int", "float", "mixed"])
@pytest.mark.parametrize("seed", range(40))
def test_random_tie_heavy_graphs(seed, form):
    rng = random.Random(f"{seed}-{form}")
    n = rng.choice((2, 3, 5, 8, 13, 21, 34, 60)) if seed % 3 else rng.randint(2, 60)
    edges = _random_edges(rng, n, form)
    _assert_same(n, edges, maxcardinality=seed % 5 == 0)


def test_fractional_float_ties():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 30)
        edges = [(u, v, rng.choice((0.1, 1 / 3, 0.5, 1.25, 2.0)))
                 for u, v, _w in _random_edges(rng, n, "int")]
        _assert_same(n, edges)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 0, 1.0)],  # self-loop
        [(0, 3, 1.0)],  # vertex beyond n
        [(-1, 2, 1.0)],  # negative vertex
        [(0, 1, 1.0), (2, -3, 1.0)],
    ],
)
def test_invalid_edges_are_rejected(edges):
    with pytest.raises(ValueError, match="invalid edge"):
        max_weight_matching_arrays(3, edges)


@pytest.mark.parametrize("second", [(0, 1, 2.0), (1, 0, 2.0)])
def test_duplicate_edges_are_rejected(second):
    with pytest.raises(ValueError, match="duplicate edge"):
        max_weight_matching_arrays(3, [(0, 1, 1.0), (1, 2, 1.0), second])
