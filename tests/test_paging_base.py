"""Tests for the paging interface shared by all policies."""

import copy

import pytest

from repro.core.rng import CounterRNG
from repro.core.uniform import PerNodePagingMatcher
from repro.errors import PagingError
from repro.matching import make_matching
from repro.paging import (
    BeladyPaging,
    FIFOPaging,
    LRUPaging,
    RandomizedMarking,
    available_paging_policies,
    make_paging_factory,
)
from repro.paging.base import PagingResult


class TestPagingResult:
    def test_miss_property(self):
        assert PagingResult(page="a", hit=False).miss is True
        assert PagingResult(page="a", hit=True).miss is False


class TestRequestSemantics:
    def test_first_request_is_miss_and_fetches(self):
        algo = LRUPaging(2)
        result = algo.request("x")
        assert result.miss
        assert "x" in algo
        assert result.evicted == ()

    def test_hit_does_not_evict(self):
        algo = LRUPaging(2)
        algo.request("x")
        result = algo.request("x")
        assert result.hit
        assert result.evicted == ()

    def test_eviction_reported(self):
        algo = FIFOPaging(1)
        algo.request("x")
        result = algo.request("y")
        assert result.miss
        assert result.evicted == ("x",)
        assert "x" not in algo and "y" in algo

    def test_cache_never_exceeds_capacity(self):
        algo = RandomizedMarking(3, rng=0)
        for i in range(50):
            algo.request(i % 7)
            assert len(algo) <= 3

    def test_capacity_validation(self):
        with pytest.raises(PagingError):
            LRUPaging(0)

    def test_stats_counting(self):
        algo = LRUPaging(2)
        algo.request("a")
        algo.request("a")
        algo.request("b")
        algo.request("c")
        assert algo.stats.requests == 4
        assert algo.stats.hits == 1
        assert algo.stats.misses == 3
        assert algo.stats.evictions == 1
        assert algo.stats.hit_ratio() == pytest.approx(0.25)

    def test_serve_sequence_returns_misses(self):
        algo = LRUPaging(2)
        misses = algo.serve_sequence(["a", "b", "a", "c", "a"])
        assert misses == 3

    def test_reset_clears_everything(self):
        algo = LRUPaging(2)
        algo.serve_sequence(["a", "b", "c"])
        algo.reset()
        assert len(algo) == 0
        assert algo.stats.requests == 0
        # After reset the policy state is clean: no stale eviction order.
        algo.request("x")
        algo.request("y")
        result = algo.request("z")
        assert result.evicted == ("x",)

    def test_drop_removes_page(self):
        algo = LRUPaging(3)
        algo.request("a")
        assert algo.drop("a") is True
        assert "a" not in algo
        assert algo.drop("a") is False

    def test_hit_ratio_empty(self):
        assert LRUPaging(1).stats.hit_ratio() == 0.0


# --------------------------------------------------------------------------- #
# hit(): the one hit path, for every registered policy and Belady
# --------------------------------------------------------------------------- #


_WARMUP = [0, 1, 2, 0, 3, 1, 4, 0, 2]
_AFTER = [5, 0, 6, 1, 7, 2, 0, 5]


def _policy_state(pager):
    """Everything a policy keeps, minus its RNG objects (compared by draws)."""
    return copy.deepcopy(
        {name: value for name, value in vars(pager).items() if name != "_rng"}
    )


def _make(policy):
    return make_paging_factory(policy)(3, CounterRNG(17).stream(2))


@pytest.mark.parametrize("policy", available_paging_policies())
class TestHitContract:
    def test_hit_on_cached_page_equals_request(self, policy):
        by_hit, by_request = _make(policy), _make(policy)
        for pager in (by_hit, by_request):
            pager.serve_sequence(_WARMUP)
        cached = sorted(by_hit.cache)
        for page in cached:
            assert by_hit.hit(page) is True
            assert by_request.request(page).hit
            assert _policy_state(by_hit) == _policy_state(by_request)
        # The two pagers stay in lockstep afterwards, evictions included.
        for page in _AFTER:
            assert by_hit.request(page) == by_request.request(page)
        assert _policy_state(by_hit) == _policy_state(by_request)

    def test_hit_on_uncached_page_changes_nothing(self, policy):
        pager = _make(policy)
        pager.serve_sequence(_WARMUP)
        before = _policy_state(pager)
        assert 99 not in pager
        assert pager.hit(99) is False
        assert _policy_state(pager) == before


class TestBeladyHitPath:
    SEQUENCE = ["a", "b", "a", "c", "a", "b", "d", "a"]

    def test_hit_advances_the_known_sequence_like_request(self):
        by_hit = BeladyPaging(2, self.SEQUENCE)
        by_request = BeladyPaging(2, self.SEQUENCE)
        for page in self.SEQUENCE:
            if not by_hit.hit(page):
                by_hit.request(page)
            by_request.request(page)
            assert _policy_state(by_hit) == _policy_state(by_request)

    def test_uncached_hit_does_not_consume_the_sequence(self):
        algo = BeladyPaging(2, self.SEQUENCE)
        before = _policy_state(algo)
        assert algo.hit("a") is False
        assert _policy_state(algo) == before

    def test_out_of_order_cached_page_rejected_by_hit(self):
        algo = BeladyPaging(2, ["a", "a", "b"])
        algo.request("a")
        with pytest.raises(PagingError):
            algo.request("b")  # "a" expected; the miss path checks
        algo = BeladyPaging(2, ["a", "b", "a"])
        algo.request("a")
        with pytest.raises(PagingError):
            algo.hit("a")  # cached, but "b" expected: the hit path checks too

    def test_matcher_cannot_bypass_the_sequence_check(self):
        # Every node's pager knows the pairs it will see; pagers are created
        # lazily, in the order the nodes first appear.
        pairs = [(0, 1), (0, 2), (0, 1), (0, 1), (0, 3), (0, 2)]
        nodes = iter([0, 1, 2, 3])

        def factory(capacity, rng):
            node = next(nodes)
            return BeladyPaging(capacity, [pair for pair in pairs if node in pair])

        matcher = PerNodePagingMatcher(make_matching(4, 2, "fast"), factory, rng=0)
        for pair in pairs:
            matcher.process(pair)  # hits go through hit(), misses through request()
        assert matcher.pager(0)._cursor == len(pairs)
        cached = sorted(matcher.pager(0).cache)[0]
        with pytest.raises(PagingError):
            matcher.process(cached)  # a hit at node 0, but past its sequence
