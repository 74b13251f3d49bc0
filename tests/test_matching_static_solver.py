"""Tests for the static maximum-weight b-matching solvers."""

import itertools
import time

import numpy as np
import pytest

from repro.errors import SolverError
from repro.matching import (
    exact_max_weight_b_matching,
    greedy_b_matching,
    iterated_max_weight_b_matching,
    matching_weight,
)
from repro.matching.validation import check_b_matching

pytestmark = pytest.mark.solver


def _random_weights(n_nodes: int, n_pairs: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    weights = {}
    while len(weights) < n_pairs:
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            weights[(min(u, v), max(u, v))] = float(rng.uniform(0.5, 10))
    return weights


class TestGreedy:
    def test_simple_choice(self):
        weights = {(0, 1): 10.0, (1, 2): 5.0, (2, 3): 8.0}
        chosen = greedy_b_matching(weights, 4, b=1)
        assert chosen == {(0, 1), (2, 3)}

    def test_respects_degree_bound(self):
        weights = {(0, i): 10.0 - i for i in range(1, 6)}
        chosen = greedy_b_matching(weights, 6, b=2)
        check_b_matching(chosen, 6, 2)
        assert chosen == {(0, 1), (0, 2)}

    def test_ignores_non_positive_weights(self):
        weights = {(0, 1): 0.0, (2, 3): -1.0, (1, 2): 3.0}
        assert greedy_b_matching(weights, 4, b=1) == {(1, 2)}

    def test_half_approximation_on_random_instances(self):
        for seed in range(5):
            weights = _random_weights(6, 8, seed)
            exact = exact_max_weight_b_matching(weights, 6, b=2)
            greedy = greedy_b_matching(weights, 6, b=2)
            assert matching_weight(greedy, weights) >= 0.5 * matching_weight(exact, weights)

    @pytest.mark.parametrize("seed", range(6))
    def test_insertion_order_does_not_matter(self, seed):
        """Ties, zero weights and reversed pairs included, as long as each
        pair appears in one orientation."""
        rng = np.random.default_rng(seed)
        weights = {}
        for u in range(12):
            for v in range(u + 1, 12):
                if rng.random() < 0.6:
                    pair = (u, v) if rng.random() < 0.5 else (v, u)
                    weights[pair] = float(rng.integers(0, 4))  # many ties, some zeros
        expected = greedy_b_matching(weights, 12, b=2)
        items = list(weights.items())
        for _ in range(20):
            order = rng.permutation(len(items))
            shuffled = dict(items[i] for i in order)
            assert greedy_b_matching(shuffled, 12, b=2) == expected

    def test_rejects_bad_b(self):
        with pytest.raises(SolverError):
            greedy_b_matching({(0, 1): 1.0}, 2, b=0)

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(SolverError):
            greedy_b_matching({(0, 9): 1.0}, 4, b=1)

    def test_rejects_negative_rack_id(self):
        # -1 must not wrap around to the last rack's degree counter; the
        # blossom path rejects the same pair.
        weights = {(-1, 2): 5.0, (0, 1): 1.0}
        with pytest.raises(SolverError, match="out of range"):
            greedy_b_matching(weights, 3, b=1)
        with pytest.raises(SolverError, match="out of range"):
            iterated_max_weight_b_matching(weights, 3, b=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "solve", [greedy_b_matching, iterated_max_weight_b_matching]
    )
    def test_rejects_non_finite_weights(self, solve, bad):
        # NaN is not <= 0, so dropping non-positive weights kept it: greedy
        # matched the pair in an order-dependent way and the blossom rounds
        # fed it into their duals.
        items = [((0, 1), bad), ((1, 2), 3.0), ((2, 3), 2.0), ((0, 3), 1.0)]
        for order in itertools.permutations(items):
            with pytest.raises(SolverError, match="non-finite weight"):
                solve(dict(order), 4, b=1)


class TestIteratedBlossom:
    def test_b_one_is_max_weight_matching(self):
        weights = {(0, 1): 2.0, (1, 2): 3.0, (2, 3): 2.0}
        chosen = iterated_max_weight_b_matching(weights, 4, b=1)
        # Max weight matching picks (0,1)+(2,3) with weight 4 > (1,2) with 3.
        assert chosen == {(0, 1), (2, 3)}

    def test_valid_b_matching_on_random_instances(self):
        for seed in range(4):
            weights = _random_weights(8, 14, seed)
            for b in (1, 2, 3):
                chosen = iterated_max_weight_b_matching(weights, 8, b=b)
                check_b_matching(chosen, 8, b)

    def test_at_least_greedy_quality_typically(self):
        weights = _random_weights(8, 16, seed=3)
        blossom = iterated_max_weight_b_matching(weights, 8, b=2)
        exact = exact_max_weight_b_matching(weights, 8, b=2, max_edges=20)
        assert matching_weight(blossom, weights) >= 0.5 * matching_weight(exact, weights)

    def test_covers_all_weight_with_large_b(self):
        weights = {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0}
        chosen = iterated_max_weight_b_matching(weights, 4, b=3)
        assert chosen == set(weights)

    def test_empty_weights(self):
        assert iterated_max_weight_b_matching({}, 4, b=2) == set()

    def test_pairs_that_sum_past_the_float_range_are_rejected(self):
        with pytest.raises(SolverError, match="non-finite weight"):
            iterated_max_weight_b_matching({(0, 1): 1e308, (1, 0): 1e308}, 2, b=1)


def _brute_force_exact(weights, n_nodes, b):
    """The original unpruned formulation, kept here as the test oracle."""
    from itertools import combinations

    canon = {}
    for (u, v), w in weights.items():
        if w > 0:
            pair = (min(u, v), max(u, v))
            canon[pair] = canon.get(pair, 0.0) + float(w)
    pairs = sorted(canon)
    best, best_weight = set(), 0.0
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            degrees = [0] * n_nodes
            feasible = True
            for u, v in subset:
                degrees[u] += 1
                degrees[v] += 1
                if degrees[u] > b or degrees[v] > b:
                    feasible = False
                    break
            if not feasible:
                continue
            total = sum(canon[p] for p in subset)
            if total > best_weight:
                best_weight = total
                best = set(subset)
    return best


class TestExact:
    def test_beats_or_matches_heuristics(self):
        for seed in range(4):
            weights = _random_weights(6, 9, seed)
            exact = exact_max_weight_b_matching(weights, 6, b=2)
            for heuristic in (
                greedy_b_matching(weights, 6, b=2),
                iterated_max_weight_b_matching(weights, 6, b=2),
            ):
                assert matching_weight(exact, weights) >= matching_weight(heuristic, weights) - 1e-9

    def test_respects_degree_bound(self):
        weights = {(0, 1): 5.0, (0, 2): 4.0, (0, 3): 3.0}
        exact = exact_max_weight_b_matching(weights, 4, b=1)
        assert exact == {(0, 1)}

    def test_guard_on_instance_size(self):
        weights = {(i, j): 1.0 for i in range(10) for j in range(i + 1, 10)}
        with pytest.raises(SolverError):
            exact_max_weight_b_matching(weights, 10, b=1, max_edges=10)

    def test_rejects_bad_b(self):
        with pytest.raises(SolverError):
            exact_max_weight_b_matching({(0, 1): 1.0}, 2, b=0)

    def test_pruned_enumeration_matches_brute_force(self):
        """The degree-prefix cutoffs must not change the chosen set.

        Ties between equal-weight optima resolve by enumeration order, so
        this compares *sets*, not just weights, against the original
        unpruned formulation.
        """
        for seed in range(8):
            n = 6
            weights = _random_weights(n, 10, seed)
            for b in (1, 2, 3):
                assert exact_max_weight_b_matching(weights, n, b) == \
                    _brute_force_exact(weights, n, b)

    def test_star_instance_at_the_size_guard_is_fast(self):
        """20 pairs sharing a hub: the prefix cutoff keeps this instant.

        The unpruned enumeration walks all 2^20 subsets here; the pruned one
        stops every branch at the hub's degree bound.
        """
        weights = {(0, i): float(i) for i in range(1, 21)}
        started = time.perf_counter()
        chosen = exact_max_weight_b_matching(weights, 21, b=2, max_edges=20)
        elapsed = time.perf_counter() - started
        assert chosen == {(0, 19), (0, 20)}
        assert elapsed < 2.0, f"pruned exact solver took {elapsed:.1f}s"


class TestMatchingWeight:
    def test_sums_selected_weights(self):
        weights = {(0, 1): 2.0, (2, 3): 3.5}
        assert matching_weight({(0, 1)}, weights) == 2.0
        assert matching_weight({(0, 1), (2, 3)}, weights) == 5.5

    def test_missing_edges_weigh_zero(self):
        assert matching_weight({(4, 5)}, {(0, 1): 2.0}) == 0.0

    def test_non_canonical_query_edges(self):
        weights = {(0, 1): 2.0, (2, 3): 3.5}
        assert matching_weight({(1, 0), (3, 2)}, weights) == 5.5

    def test_non_canonical_weight_keys(self):
        # Weight mappings with reversed keys still resolve per queried edge.
        assert matching_weight({(0, 1)}, {(1, 0): 2.0}) == 2.0

    def test_does_not_scan_the_whole_weight_mapping(self):
        """O(|edges|), not O(|weights|): a huge mapping must not slow a tiny query."""
        weights = {(i, j): 1.0 for i in range(300) for j in range(i + 1, 300)}
        started = time.perf_counter()
        for _ in range(2000):
            matching_weight([(0, 1)], weights)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"2000 single-edge queries took {elapsed:.2f}s"
