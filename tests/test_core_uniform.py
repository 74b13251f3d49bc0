"""Tests for the uniform-case machinery (Theorem 2 reduction)."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.config import MatchingConfig
from repro.core import HybridBMA, UniformBMatching
from repro.core.registry import ALGORITHMS
from repro.core.uniform import PerNodePagingMatcher
from repro.matching import BMatching
from repro.matching.validation import check_b_matching
from repro.paging import RandomizedMarking
from repro.paging.registry import make_paging_factory
from repro.topology import FatTreeTopology
from repro.traffic import zipf_pair_trace
from repro.types import Request


class TestPerNodePagingMatcher:
    def _matcher(self, n=6, b=2, policy="marking", seed=0):
        matching = BMatching(n, b)
        return PerNodePagingMatcher(matching, make_paging_factory(policy), rng=seed)

    def test_requested_pair_becomes_matched(self):
        m = self._matcher()
        added, removed = m.process((0, 1))
        assert added == ((0, 1),)
        assert removed == ()
        assert (0, 1) in m.matching

    def test_repeated_pair_is_stable(self):
        m = self._matcher()
        m.process((0, 1))
        added, removed = m.process((0, 1))
        assert added == () and removed == ()

    def test_pagers_created_lazily(self):
        m = self._matcher()
        assert m.active_nodes == frozenset()
        m.process((2, 4))
        assert m.active_nodes == {2, 4}

    def test_invariant_unmarked_edges_cached_at_both_endpoints(self):
        rng = np.random.default_rng(1)
        m = self._matcher(n=8, b=2, seed=3)
        for _ in range(300):
            u, v = rng.choice(8, size=2, replace=False)
            m.process((min(u, v), max(u, v)))
            for edge in m.matching.edges:
                if edge in m.matching.marked_edges:
                    continue
                for endpoint in edge:
                    assert edge in m.pager(endpoint)

    def test_degree_bound_never_violated(self):
        rng = np.random.default_rng(2)
        for policy in ("marking", "lru", "fifo", "lfu", "random"):
            m = self._matcher(n=6, b=2, policy=policy, seed=5)
            for _ in range(400):
                u, v = rng.choice(6, size=2, replace=False)
                m.process((min(u, v), max(u, v)))
                check_b_matching(m.matching.edges, 6, 2)

    def test_eviction_marks_edge_for_removal(self):
        # b=1: matching 0-1, then requesting 0-2 evicts 0-1 from node 0's cache.
        m = self._matcher(n=4, b=1)
        m.process((0, 1))
        added, removed = m.process((0, 2))
        assert (0, 2) in m.matching
        assert (0, 1) not in m.matching  # pruned to make room at node 0
        assert ((0, 1)) in removed

    def test_reset_clears_pagers(self):
        m = self._matcher()
        m.process((0, 1))
        m.reset()
        assert m.active_nodes == frozenset()


class TestUniformBMatching:
    def test_runs_and_respects_bounds(self, small_leafspine, uniform_trace):
        algo = UniformBMatching(small_leafspine, MatchingConfig(b=2, alpha=1), rng=0)
        algo.serve_all(list(uniform_trace.requests()))
        check_b_matching(algo.matching.edges, small_leafspine.n_racks, 2)
        assert algo.requests_served == len(uniform_trace)

    def test_every_request_forwarded(self, small_leafspine):
        algo = UniformBMatching(small_leafspine, MatchingConfig(b=2, alpha=1), rng=0)
        algo.serve(Request(0, 1))
        assert (0, 1) in algo.matching

    def test_repeated_working_set_is_all_hits(self, small_leafspine):
        algo = UniformBMatching(small_leafspine, MatchingConfig(b=2, alpha=1), rng=0)
        pairs = [(0, 1), (2, 3), (4, 5)]
        for _ in range(20):
            for u, v in pairs:
                algo.serve(Request(u, v))
        # After the first pass everything fits (degree 1 per node <= b=2).
        assert algo.matched_fraction > 0.9

    def test_alternative_paging_policy(self, small_leafspine, uniform_trace):
        algo = UniformBMatching(
            small_leafspine, MatchingConfig(b=2, alpha=1), rng=0, paging_policy="lru"
        )
        algo.serve_all(list(uniform_trace.requests()))
        check_b_matching(algo.matching.edges, small_leafspine.n_racks, 2)


# --------------------------------------------------------------------------- #
# The flat marking loop of serve_specials against per-request serving
# --------------------------------------------------------------------------- #
#: 4160 requests: every segment of 16, 57 or 4096 requests, the last one
#: included, is long enough for the batched replay (``min_segment`` 16).
FLAT_REQUESTS = 4160
FLAT_SIZES = (16, 57, 4096, FLAT_REQUESTS)


class _SubclassMarking(RandomizedMarking):
    """A marking subclass: its matcher must take the generic ``process`` path."""


@lru_cache(maxsize=None)
def _flat_trace():
    return zipf_pair_trace(n_nodes=16, n_requests=FLAT_REQUESTS, exponent=1.1, seed=13)


def _flat_algorithm(name, b, **params):
    return ALGORITHMS.build(
        name, FatTreeTopology(n_racks=16), MatchingConfig(b=b, alpha=3.0), 11, **params
    )


def _paging_state(algo):
    """Every pager's cache in iteration order, marks, phases, draws and stats,
    and the paging matcher's matching, after the last committed request."""
    matcher = (algo._robust if isinstance(algo, HybridBMA) else algo)._matcher
    pagers = {
        node: (
            list(pager._cache),
            getattr(pager, "marked_pages", None),
            getattr(pager, "phase_count", None),
            getattr(pager, "_draw_index", None),
            replace(pager.stats),  # a copy: the live stats keep counting
        )
        for node, pager in sorted(matcher._pagers.items())
    }
    matching = matcher.matching
    return (
        pagers,
        set(matching.edge_keys),
        matching.marked_edges,
        matching.additions,
        matching.removals,
        algo.requests_served,
        algo.total_routing_cost,
        algo.total_reconfiguration_cost,
        set(algo.matching.edge_keys),
    )


@lru_cache(maxsize=None)
def _served_states(name, b, params=()):
    """The state at every segment end of :data:`FLAT_SIZES`, served request by request."""
    trace = _flat_trace()
    algo = _flat_algorithm(name, b, **dict(params))
    algo.min_segment = len(trace) + 1  # every segment through ``serve``
    ends = sorted({stop for size in FLAT_SIZES for stop in range(size, len(trace) + 1, size)})
    states, start = {}, 0
    for stop in ends:
        algo.serve_batch(trace[start:stop])
        states[stop], start = _paging_state(algo), stop
    return states


def _replay_and_compare(name, b, size, params, monkeypatch):
    """Replay in ``size``-request segments; return the ``process`` calls made."""
    expected = _served_states(name, b, tuple(params.items()))
    calls = [0]
    process = PerNodePagingMatcher.process

    def counting_process(self, pair):
        calls[0] += 1
        return process(self, pair)

    monkeypatch.setattr(PerNodePagingMatcher, "process", counting_process)
    trace = _flat_trace()
    algo = _flat_algorithm(name, b, **params)
    for start in range(0, len(trace), size):
        stop = min(start + size, len(trace))
        algo.serve_batch(trace[start:stop])
        assert _paging_state(algo) == expected[stop], (name, b, size, stop)
    return calls[0]


class TestFlatMarkingLoop:
    """``serve_specials`` runs marking pagers in one flat loop; ``process`` is
    its reference.  At every segment end the pagers (cache iteration order
    included: it picks the eviction victim) and the matching equal those of
    per-request serving."""

    @pytest.mark.parametrize("size", FLAT_SIZES)
    @pytest.mark.parametrize("b", [1, 2, 3, 12])
    @pytest.mark.parametrize("name", ["rbma", "uniform", "hybrid"])
    def test_flat_loop_equals_per_request_serve(self, name, b, size, monkeypatch):
        assert _replay_and_compare(name, b, size, {}, monkeypatch) == 0
        pagers = _served_states(name, b)[FLAT_REQUESTS][0].values()
        assert sum(draws for _, _, _, draws, _ in pagers) > 0

    @pytest.mark.parametrize("size", [57, FLAT_REQUESTS])
    @pytest.mark.parametrize(
        "name, params",
        [
            ("rbma", {"paging_policy": "lru"}),
            ("uniform", {"paging_policy": "lru"}),
            ("rbma", {"paging_factory": _SubclassMarking}),
        ],
    )
    def test_other_pagers_take_the_process_path(self, name, params, size, monkeypatch):
        assert _replay_and_compare(name, 3, size, params, monkeypatch) > 0
