"""Differential and behavioural tests for the static solver tier.

Certifies the ``SOLVER_BACKENDS`` registry (nx / array) behind
SO-BMA's iterated maximum-weight b-matching:

* a hypothesis differential harness — array vs nx must agree on total
  matching weight, produce valid b-matchings, and be run-to-run
  deterministic;
* a strict identity certificate — on seeded random instances the array
  kernel must return the *same* matchings as NetworkX, which is the
  mechanism that makes SO-BMA figure costs bit-identical across backends
  (asserted end-to-end by ``benchmarks/bench_solver.py`` and pinned by the
  golden traces);
* prefix-sharing equivalence (``solve_b_rounds`` vs per-``b`` solves);
* demand-fingerprint memo behaviour (hits, misses, eviction, mutation
  safety, LRU eviction at ``_CACHE_SIZE``);
* spec/config UX (typo suggestions, JSON round-trips) and
  ``RunResult.extra`` provenance;
* a ``perf_smoke`` leg timing array vs nx.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MatchingConfig
from repro.errors import ConfigurationError
from repro.experiments import AlgorithmSpec, ExperimentSpec
from repro.matching import (
    DEFAULT_SOLVER_BACKEND,
    SOLVER_BACKENDS,
    iterated_max_weight_b_matching,
    matching_weight,
    resolve_solver_backend,
    solve_b_rounds,
    solver_cache_clear,
    solver_cache_info,
)
from repro.matching import static_solver
from repro.matching.validation import check_b_matching

pytestmark = pytest.mark.solver


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test from memo state left by other tests."""
    solver_cache_clear()
    yield
    solver_cache_clear()


def _random_weights(rng: np.random.Generator, n: int, m: int) -> dict:
    weights = {}
    for _ in range(m):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            weights[(min(u, v), max(u, v))] = float(rng.integers(1, 8))
    return weights


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pair = (
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p)))
    )
    weight = st.one_of(
        st.integers(1, 6).map(float),
        st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    )
    weights = draw(st.dictionaries(pair, weight, max_size=n * (n - 1) // 2))
    b = draw(st.integers(min_value=1, max_value=3))
    return n, weights, b


class TestDifferential:
    @settings(
        deadline=None,
        max_examples=120,
        # The autouse cache-clearing fixture is function-scoped; the test
        # also clears the cache per example, so sharing it across examples
        # is sound.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_instances())
    def test_array_matches_nx_weight_validity_determinism(self, instance):
        n, weights, b = instance
        solver_cache_clear()
        chosen_nx = iterated_max_weight_b_matching(weights, n, b, backend="nx")
        solver_cache_clear()
        chosen_array = iterated_max_weight_b_matching(weights, n, b, backend="array")
        solver_cache_clear()
        chosen_again = iterated_max_weight_b_matching(weights, n, b, backend="array")
        check_b_matching(chosen_nx, n, b)
        check_b_matching(chosen_array, n, b)
        assert chosen_array == chosen_again  # run-to-run determinism
        assert matching_weight(chosen_array, weights) == pytest.approx(
            matching_weight(chosen_nx, weights), abs=1e-9
        )

    def test_array_is_identical_to_nx_on_seeded_batch(self):
        """Strict certificate: same matchings, not merely equal weight.

        This is what makes SO-BMA costs (including intermediate checkpoint
        series and reconfiguration counts) bit-identical across backends.
        """
        rng = np.random.default_rng(2023)
        for _ in range(250):
            n = int(rng.integers(2, 14))
            weights = _random_weights(rng, n, int(rng.integers(0, 30)))
            for b in (1, 2, 4):
                solver_cache_clear()
                chosen_nx = iterated_max_weight_b_matching(weights, n, b, backend="nx")
                solver_cache_clear()
                chosen_array = iterated_max_weight_b_matching(
                    weights, n, b, backend="array"
                )
                assert chosen_array == chosen_nx


class TestPrefixSharing:
    def test_solve_b_rounds_equals_per_b_solves(self):
        rng = np.random.default_rng(11)
        for backend in ("array", "nx"):
            for _ in range(20):
                n = int(rng.integers(3, 10))
                weights = _random_weights(rng, n, int(rng.integers(1, 20)))
                solver_cache_clear()
                rounds = solve_b_rounds(weights, n, 4, backend=backend)
                assert len(rounds) == 4
                for k in range(1, 5):
                    solver_cache_clear()
                    assert rounds[k - 1] == iterated_max_weight_b_matching(
                        weights, n, k, backend=backend
                    )

    def test_larger_b_extends_instead_of_resolving(self, monkeypatch):
        calls = []
        real = SOLVER_BACKENDS.resolve("array")

        def counting(remaining, n_nodes):
            calls.append(len(remaining))
            return real(remaining, n_nodes)

        monkeypatch.setitem(SOLVER_BACKENDS._factories, "array", counting)
        weights = {(0, i): float(10 - i) for i in range(1, 8)}
        for i in range(1, 7):
            weights[(i, i + 1)] = 1.0
        iterated_max_weight_b_matching(weights, 8, 2, backend="array")
        rounds_after_b2 = len(calls)
        iterated_max_weight_b_matching(weights, 8, 4, backend="array")
        assert len(calls) == 4  # rounds 3 and 4 only, not a fresh 1..4
        assert rounds_after_b2 == 2
        iterated_max_weight_b_matching(weights, 8, 3, backend="array")
        assert len(calls) == 4  # pure prefix hit, no new rounds


class TestMemo:
    def test_hit_and_miss_counting(self):
        weights = {(0, 1): 2.0, (1, 2): 3.0, (2, 3): 2.0}
        first = iterated_max_weight_b_matching(weights, 4, 1)
        info = solver_cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        second = iterated_max_weight_b_matching(weights, 4, 1)
        info = solver_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)
        assert first == second

    def test_returned_sets_are_mutation_safe(self):
        weights = {(0, 1): 2.0, (2, 3): 3.0}
        first = iterated_max_weight_b_matching(weights, 4, 1)
        first.add((0, 3))  # caller mangles its copy
        second = iterated_max_weight_b_matching(weights, 4, 1)
        assert (0, 3) not in second

    def test_eviction_at_capacity(self, monkeypatch):
        monkeypatch.setattr(static_solver, "_CACHE_SIZE", 2)
        for offset in range(3):
            weights = {(0, 1): 1.0 + offset}
            iterated_max_weight_b_matching(weights, 2, 1)
        info = solver_cache_info()
        assert info["currsize"] == 2
        assert info["evictions"] == 1
        # The oldest entry was evicted: solving it again is a miss.
        iterated_max_weight_b_matching({(0, 1): 1.0}, 2, 1)
        assert solver_cache_info()["misses"] == 4

    def test_insertion_order_is_part_of_the_fingerprint(self):
        # Order is the solver's tie-breaking order, so it must key the memo.
        forward = {(0, 1): 2.0, (2, 3): 3.0}
        backward = {(2, 3): 3.0, (0, 1): 2.0}
        iterated_max_weight_b_matching(forward, 4, 1)
        iterated_max_weight_b_matching(backward, 4, 1)
        assert solver_cache_info()["misses"] == 2

    def test_distinct_backends_do_not_share_entries(self):
        weights = {(0, 1): 2.0, (1, 2): 3.0}
        iterated_max_weight_b_matching(weights, 3, 1, backend="array")
        iterated_max_weight_b_matching(weights, 3, 1, backend="nx")
        assert solver_cache_info()["misses"] == 2


class TestBackendSelection:
    def test_default_backend_is_array(self):
        assert DEFAULT_SOLVER_BACKEND == "array"
        assert resolve_solver_backend(None) == "array"

    def test_unknown_backend_gets_suggestions(self):
        with pytest.raises(ConfigurationError, match="did you mean 'array'"):
            resolve_solver_backend("aray")

    def test_config_validates_solver_backend(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            MatchingConfig(b=2, solver_backend="arrray")
        assert MatchingConfig(b=2, solver_backend="nx").solver_backend == "nx"


def _so_bma_spec(solver_backend=None):
    return ExperimentSpec(
        algorithm={
            "name": "so-bma",
            "b": 3,
            "alpha": 4.0,
            "solver_backend": solver_backend,
        },
        traffic={"name": "zipf", "params": {"n_nodes": 12, "n_requests": 400}},
        seed=3,
    )


class TestSpecAndProvenance:
    def test_solver_backend_roundtrips_through_spec_json(self):
        spec = _so_bma_spec("nx")
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.algorithm.solver_backend == "nx"
        default = ExperimentSpec.from_json(_so_bma_spec().to_json())
        assert default.algorithm.solver_backend is None

    def test_algorithm_spec_rejects_unknown_backend_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown solver backend"):
            AlgorithmSpec(name="so-bma", b=2, solver_backend="blossom").validate()
        with pytest.raises(ConfigurationError, match="did you mean 'nx'"):
            AlgorithmSpec(name="so-bma", b=2, solver_backend="nxx").validate()

    def test_run_result_records_requested_and_effective_backend(self):
        result = _so_bma_spec().execute()
        assert result.extra["solver_backend"] == DEFAULT_SOLVER_BACKEND
        assert result.extra["solver_kernel"] == "array"
        result_nx = _so_bma_spec("nx").execute()
        assert result_nx.extra["solver_backend"] == "nx"
        assert result_nx.extra["solver_kernel"] == "nx"
        assert result_nx.total_routing_cost == result.total_routing_cost
        assert result_nx.series.routing_cost.tolist() == result.series.routing_cost.tolist()

    def test_greedy_solver_records_greedy_provenance(self):
        spec = ExperimentSpec(
            algorithm={"name": "so-bma", "b": 3, "params": {"solver": "greedy"}},
            traffic={"name": "zipf", "params": {"n_nodes": 12, "n_requests": 300}},
            seed=3,
        )
        result = spec.execute()
        assert result.extra["solver_kernel"] == "greedy"

    def test_online_algorithms_record_no_solver_provenance(self):
        spec = ExperimentSpec(
            algorithm={"name": "bma", "b": 3},
            traffic={"name": "zipf", "params": {"n_nodes": 12, "n_requests": 300}},
            seed=3,
        )
        result = spec.execute()
        assert "solver_backend" not in result.extra
        assert "solver_kernel" not in result.extra


@pytest.mark.perf_smoke
def test_array_solver_outpaces_nx():
    """Timing canary: the array kernel must beat the NetworkX blossom path.

    Loose threshold (the array kernel wins this instance by ~1.8x on an idle
    machine) so scheduler noise cannot flake CI while a regression that
    erases the win still fails.  ``BENCH_solver.json`` records the full
    figure-panel numbers; this is only the canary.
    """
    rng = np.random.default_rng(5)
    n = 60
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            weights[(u, v)] = float(rng.integers(1, 500))
    timings = {}
    for backend in ("nx", "array"):
        best = float("inf")
        for _attempt in range(2):  # best-of-2 suppresses one-off blips
            solver_cache_clear()
            started = time.perf_counter()
            iterated_max_weight_b_matching(weights, n, 2, backend=backend)
            best = min(best, time.perf_counter() - started)
        timings[backend] = best
    assert timings["array"] < timings["nx"] * 0.9, (
        f"array solver took {timings['array']:.3f}s vs nx {timings['nx']:.3f}s "
        "— expected a clear win; the flat-array blossom kernel has regressed"
    )
