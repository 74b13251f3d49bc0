"""Tests for the deterministic paging policies (LRU, FIFO, LFU, random)."""

import numpy as np
import pytest

from repro.paging import (
    FIFOPaging,
    LFUPaging,
    LRUPaging,
    RandomEvictionPaging,
    available_paging_policies,
    make_paging_factory,
)
from repro.core.rng import CounterRNG
from repro.errors import ConfigurationError


class TestLRU:
    def test_evicts_least_recently_used(self):
        algo = LRUPaging(2)
        algo.request("a")
        algo.request("b")
        algo.request("a")  # refresh a; b is now LRU
        result = algo.request("c")
        assert result.evicted == ("b",)

    def test_sequential_scan_thrashes(self):
        algo = LRUPaging(3)
        misses = algo.serve_sequence([0, 1, 2, 3] * 10)
        assert misses == 40  # classic LRU worst case

    def test_drop_then_evict_consistent(self):
        algo = LRUPaging(2)
        algo.request("a")
        algo.request("b")
        algo.drop("a")
        algo.request("c")
        result = algo.request("d")
        assert result.evicted == ("b",)


class TestFIFO:
    def test_evicts_oldest_fetch(self):
        algo = FIFOPaging(2)
        algo.request("a")
        algo.request("b")
        algo.request("a")  # hit does not refresh FIFO order
        result = algo.request("c")
        assert result.evicted == ("a",)

    def test_queue_skips_dropped_pages(self):
        algo = FIFOPaging(2)
        algo.request("a")
        algo.request("b")
        algo.drop("a")
        algo.request("c")
        result = algo.request("d")
        assert result.evicted == ("b",)


class TestLFU:
    def test_evicts_least_frequent(self):
        algo = LFUPaging(2)
        algo.request("a")
        algo.request("a")
        algo.request("b")
        result = algo.request("c")
        assert result.evicted == ("b",)

    def test_frequency_reset_after_eviction(self):
        algo = LFUPaging(2)
        for _ in range(5):
            algo.request("a")
        algo.request("b")
        algo.request("c")  # evicts b (frequency 1 < 5)
        assert "a" in algo and "c" in algo
        # a's high count persists while it stays cached
        result = algo.request("d")
        assert result.evicted == ("c",)

    def test_tie_broken_by_staleness(self):
        algo = LFUPaging(2)
        algo.request("a")
        algo.request("b")
        result = algo.request("c")
        assert result.evicted == ("a",)


class TestRandomEviction:
    def test_respects_capacity(self):
        algo = RandomEvictionPaging(3, rng=0)
        rng = np.random.default_rng(1)
        for page in rng.integers(0, 10, size=200):
            algo.request(int(page))
            assert len(algo) <= 3

    def test_reproducible(self):
        seq = list(np.random.default_rng(2).integers(0, 6, size=200))
        a = RandomEvictionPaging(3, rng=9).serve_sequence(seq)
        b = RandomEvictionPaging(3, rng=9).serve_sequence(seq)
        assert a == b


class TestPagingRegistry:
    def test_lists_policies(self):
        names = available_paging_policies()
        assert {"marking", "lru", "fifo", "lfu", "random"} <= set(names)

    def test_factories_produce_working_algorithms(self):
        for name in available_paging_policies():
            factory = make_paging_factory(name)
            algo = factory(3, CounterRNG(0))
            algo.request("p")
            assert "p" in algo
            assert algo.capacity == 3

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_paging_factory("not-a-policy")
