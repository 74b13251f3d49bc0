"""Counter-RNG tier: Philox bit-identity, the coordinate contract, replay.

Three layers of certification for :mod:`repro.core.rng`:

* **Bit-identity with NumPy.**  :class:`CounterRNG` draws are pinned
  against a fresh ``Generator(Philox(...))`` at the same coordinates over
  seeded sweeps and hypothesis-driven coordinates, so any drift from
  NumPy's bounded-draw semantics fails here.
* **The coordinate contract.**  Draws are pure functions of
  ``(root_seed, stream_id, request_index, draw_counter)``: replaying any
  coordinate replays the draw, changing any coordinate decorrelates, and
  child streams are order-independent.
* **Replay differentials.**  For the randomized algorithms
  (marking/random-eviction paging behind uniform and R-BMA), runs must be
  identical across request-by-request, batched, and streamed replay at
  checkpoint-straddling chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatchingConfig, SimulationConfig
from repro.core.registry import ALGORITHMS
from repro.core.rng import CounterRNG, derive_key
from repro.errors import ConfigurationError
from repro.paging import RandomEvictionPaging, RandomizedMarking
from repro.paging.base import coerce_paging_rng
from repro.simulation import run_simulation
from repro.topology import LeafSpineTopology
from repro.traffic import make_workload
from repro.traffic.stream import TraceStream

pytestmark = pytest.mark.rng

_U64 = st.integers(min_value=0, max_value=2**64 - 1)


def _numpy_reference_draw(k0: int, k1: int, index: int, counter: int, n: int) -> int:
    """NumPy's own answer at the draw coordinates, via a fresh generator."""
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    state = bitgen.state
    state["state"]["counter"] = [0, counter, index, 0]
    bitgen.state = state
    return int(np.random.Generator(bitgen).integers(n))


# --------------------------------------------------------------------------- #
# Bit-identity: CounterRNG == NumPy
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    #: Bounds covering NumPy's bounded-integer dispatch below 2**63: n == 1
    #: consumes nothing, small bounds exercise 32-bit Lemire rejection
    #: (including powers of two, which never reject), 2**32 is the
    #: raw-uint32 case and bounds above it take the 64-bit Lemire path.
    EDGE_BOUNDS = (
        1, 2, 3, 5, 7, 13, 64, 100, 101, 2**16, 2**31, 2**32 - 1, 2**32,
        2**32 + 1, 2**33, 2**48 + 12345, 2**63 - 1,
    )

    def test_counter_rng_matches_numpy_sweep(self):
        """Seeded sweep over keys x coordinates x every dispatch branch."""
        for seed in (0, 1, 97, 2**31, 2**64 - 1):
            crng = CounterRNG(seed, stream_id=seed % 5)
            k0, k1 = crng.key
            for index in (0, 1, 17, 2**32, 2**64 - 1):
                for counter in (0, 3):
                    for n in self.EDGE_BOUNDS:
                        assert crng.integers(n, index, counter) == \
                            _numpy_reference_draw(k0, k1, index, counter, n), (
                                f"drift at key=({k0:#x},{k1:#x}) index={index} "
                                f"counter={counter} n={n}"
                            )

    @given(seed=_U64, stream=_U64, index=_U64,
           counter=st.integers(0, 2**32), n=st.integers(1, 2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bit_identity_hypothesis(self, seed, stream, index, counter, n):
        """Arbitrary coordinates: CounterRNG == NumPy, always."""
        crng = CounterRNG(seed, stream)
        assert crng.key == derive_key(seed, stream)
        assert crng.integers(n, index, counter) == \
            _numpy_reference_draw(*crng.key, index, counter, n)


class _CountingGenerator:
    """Stands in for ``CounterRNG._gen``: counts the draws left to NumPy."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    def integers(self, n):
        self.calls += 1
        return self.gen.integers(n)


def _lemire_branch(k0: int, k1: int, index: int, counter: int, n: int) -> str:
    """Which half of the raw Philox word NumPy's 32-bit Lemire accepts."""
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    state = bitgen.state
    state["state"]["counter"] = [0, counter, index, 0]
    bitgen.state = state
    word = bitgen.random_raw()
    threshold = 2**32 % n
    if ((word & 0xFFFFFFFF) * n) & 0xFFFFFFFF >= threshold:
        return "low"
    if ((word >> 32) * n) & 0xFFFFFFFF >= threshold:
        return "high"
    return "numpy"


class TestDrawBranches:
    """Every branch of :meth:`CounterRNG.integers`, each against NumPy.

    ``n = 2**31 + 1`` rejects a 32-bit half about half the time, so the
    first few dozen indices reach all three Lemire outcomes: the low half
    accepted, the low half rejected and the high half accepted, and both
    rejected (NumPy draws).
    """

    N_REJECTING = 2**31 + 1

    def _draws(self, crng, bounds, indices):
        counting = _CountingGenerator(crng._gen)
        crng._gen = counting
        for n in bounds:
            for index in indices:
                before = counting.calls
                got = crng.integers(n, index, 2)
                assert got == _numpy_reference_draw(*crng.key, index, 2, n), (n, index)
                yield n, index, counting.calls - before

    def test_each_lemire_branch_matches_numpy(self):
        crng = CounterRNG(2023, 7)
        hits = {"low": 0, "high": 0, "numpy": 0}
        for n, index, numpy_calls in self._draws(
            crng, (self.N_REJECTING, 2**32 - 1, 3), range(64)
        ):
            branch = _lemire_branch(*crng.key, index, 2, n)
            hits[branch] += 1
            assert numpy_calls == (branch == "numpy"), (n, index, branch)
        assert min(hits.values()) >= 1, hits

    def test_bound_one_draws_zero_without_numpy(self):
        crng = CounterRNG(5)
        for _, _, numpy_calls in self._draws(crng, (1,), range(16)):
            assert numpy_calls == 0
        assert crng.integers(1, 3) == 0

    @pytest.mark.parametrize(
        "n",
        [2**32, 2**32 + 1, 2**40 + 3, np.int64(5), np.int64(N_REJECTING),
         np.uint32(7), True],
        ids=["2^32", "2^32+1", "2^40+3", "int64", "int64-rejecting", "uint32", "bool"],
    )
    def test_other_bounds_go_to_numpy(self, n):
        crng = CounterRNG(11, 3)
        for _, _, numpy_calls in self._draws(crng, (n,), range(24)):
            assert numpy_calls == 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_bound_raises_like_numpy(self, n):
        with pytest.raises(ValueError) as ours:
            CounterRNG(11).integers(n, 0)
        with pytest.raises(ValueError) as numpys:
            _numpy_reference_draw(*CounterRNG(11).key, 0, 0, n)
        assert str(ours.value) == str(numpys.value)


# --------------------------------------------------------------------------- #
# The coordinate contract
# --------------------------------------------------------------------------- #
class TestCoordinateContract:
    def test_replay_is_exact(self):
        """The same coordinates always reproduce the same draw."""
        a, b = CounterRNG(7), CounterRNG(7)
        draws = [(a.integers(100, i), b.integers(100, i)) for i in range(200)]
        assert all(x == y for x, y in draws)
        # Re-drawing out of order on the same instance replays too: there is
        # no carried state for the order to perturb.
        assert [a.integers(100, i) for i in reversed(range(200))] == \
            [d for d, _ in reversed(draws)]

    @given(seed=_U64, index_a=_U64, index_b=_U64)
    @settings(max_examples=100, deadline=None)
    def test_index_independence(self, seed, index_a, index_b):
        """Distinct request indices address decorrelated draws.

        With a 2**62 bound, a collision between two independent uniform
        draws has probability 2**-62 — a failure here means the index
        coordinate is being ignored, not bad luck.
        """
        crng = CounterRNG(seed)
        if index_a == index_b:
            assert crng.integers(2**62, index_a) == crng.integers(2**62, index_b)
        else:
            assert crng.integers(2**62, index_a) != crng.integers(2**62, index_b)

    def test_counter_coordinate_is_independent(self):
        crng = CounterRNG(11)
        draws = {crng.integers(2**62, 5, counter) for counter in range(32)}
        assert len(draws) == 32

    def test_streams_are_independent_and_order_free(self):
        root = CounterRNG(42)
        keys = {root.stream(node).key for node in range(64)}
        assert len(keys) == 64  # all distinct
        assert root.stream(3).key == root.stream(3).key  # pure function
        # Nested derivation stays collision-free without any registry.
        assert root.stream(1).stream(2).key != root.stream(2).stream(1).key

    def test_derive_key_sensitivity(self):
        base = derive_key(1000, 0)
        assert derive_key(1001, 0) != base
        assert derive_key(1000, 1) != base

    def test_entropy_seed_is_allowed(self):
        """root_seed=None draws fresh entropy (parity with default_rng)."""
        assert CounterRNG(None).key != CounterRNG(None).key


# --------------------------------------------------------------------------- #
# The paging rng contract
# --------------------------------------------------------------------------- #
class TestPagingRngContract:
    def test_coercion_forms(self):
        assert isinstance(coerce_paging_rng(None), CounterRNG)
        for seed in (5, np.int64(5)):
            keyed = coerce_paging_rng(seed)
            assert isinstance(keyed, CounterRNG) and keyed.key == CounterRNG(5).key
        counter = CounterRNG(3)
        assert coerce_paging_rng(counter) is counter

    @pytest.mark.parametrize(
        "bad", [1.5, "seed", True, np.float64(2.0), object(), np.random.default_rng(0)]
    )
    def test_loose_rng_rejected(self, bad):
        """Floats, strings, bools, generators, foreign objects: loud
        ConfigurationError.

        A bool would otherwise act as seed 0 or 1 and quietly change the
        stream, and a stateful ``Generator`` is not a pager RNG mode any
        more; the pagers must refuse instead.
        """
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            coerce_paging_rng(bad)
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            RandomizedMarking(4, rng=bad)
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            RandomEvictionPaging(4, rng=bad)

    @pytest.mark.parametrize("cls", [RandomizedMarking, RandomEvictionPaging])
    def test_counter_pager_replay_is_reset_invariant(self, cls):
        """reset() rewinds the draw index: a replayed request sequence
        reproduces the eviction choices exactly."""
        requests = [i % 7 for i in range(50)]

        def evictions(pager):
            out = []
            for page in requests:
                out.append(pager.request(page).evicted)
            return out

        pager = cls(3, rng=CounterRNG(17))
        first = evictions(pager)
        pager.reset()
        assert evictions(pager) == first


# --------------------------------------------------------------------------- #
# Replay differentials on the randomized algorithms
# --------------------------------------------------------------------------- #
N_NODES = 10
CHUNK_SIZES = (7, 173, 799, 4096)


def _trace():
    return make_workload("zipf", n_nodes=N_NODES, n_requests=800, seed=31,
                         exponent=1.3)


def _build(algorithm, paging_policy):
    topology = LeafSpineTopology(n_racks=N_NODES)
    return ALGORITHMS.build(
        algorithm, topology, MatchingConfig(b=3, alpha=4.0), 61,
        paging_policy=paging_policy,
    )


def _totals(result, algo):
    return (
        result.total_routing_cost,
        result.total_reconfiguration_cost,
        result.matched_fraction,
        algo.matching.additions,
        algo.matching.removals,
        result.series.routing_cost.tolist(),
    )


def _run(algorithm, paging_policy, backend="fast", chunk_size=None):
    trace = _trace()
    if chunk_size is not None:
        trace = TraceStream.from_trace(trace, chunk_size=chunk_size)
    algo = _build(algorithm, paging_policy)
    result = run_simulation(
        algo, trace, SimulationConfig(checkpoints=5, matching_backend=backend)
    )
    return _totals(result, algo)


@pytest.mark.parametrize("paging_policy", ["marking", "random"])
@pytest.mark.parametrize("algorithm", ["uniform", "rbma"])
class TestModeDifferentialMatrix:
    """Every replay mode (per-request, batched, streamed) gives the same run."""

    def test_batched_replay_matches_reference(self, algorithm, paging_policy):
        """reference (request-by-request) == fast (batched)."""
        assert _run(algorithm, paging_policy, backend="reference") == \
            _run(algorithm, paging_policy, backend="fast")

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streamed_replay_is_chunk_invariant(
        self, algorithm, paging_policy, chunk_size
    ):
        assert _run(algorithm, paging_policy, chunk_size=chunk_size) == \
            _run(algorithm, paging_policy)
