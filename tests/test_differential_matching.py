"""Differential harness: every kernel must be indistinguishable from BMatching.

Two layers of evidence certify the fast kernel:

* **Operation-level** — randomized operation sequences (hypothesis-driven and
  seeded-exhaustive) are applied to all kernels in lockstep; every return
  value, every raised exception (type *and* message), and the full observable
  state (edges, marks, degrees, counters) must agree after every step.
* **Replay-level** — full simulations are executed once per
  ``matching_backend``, for every registered algorithm across all registered
  topologies and workloads; the resulting :class:`RunResult` cost totals and
  checkpoint series must be *bit-identical* (exact float equality, not
  approximate), as must the final matching state.

Because ``serve_batch`` serves ``"reference"`` runs through the original
per-request loop and ``"fast"`` runs through each algorithm's batched
``_serve_segment``, the replay layer simultaneously guards the kernel swap,
the batched engine path, and every algorithm's hand-tuned batch loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatchingConfig, SimulationConfig
from repro.core.registry import ALGORITHMS
from repro.errors import ReproError
from repro.experiments import ExperimentSpec
from repro.matching import (
    BMatching,
    FastBMatching,
    convert_matching,
    make_matching,
)
from repro.simulation import run_simulation
from repro.topology.registry import TOPOLOGIES
from repro.traffic import zipf_pair_trace
from repro.traffic.registry import WORKLOADS

BACKENDS = ("reference", "fast")

# --------------------------------------------------------------------------- #
# Operation-level differential testing
# --------------------------------------------------------------------------- #

N_NODES = 7
B = 2

#: (op name, number of node arguments) — ops taking node pairs may receive
#: arbitrary (also invalid) combinations so exception behaviour is compared.
_OPS = [
    ("add", 2),
    ("remove", 2),
    ("mark_for_removal", 2),
    ("unmark", 2),
    ("prune_to_capacity", 1),
    ("has_capacity", 2),
    ("is_marked", 2),
    ("degree", 1),
    ("is_full", 1),
    ("edges_at", 1),
    ("contains", 2),
    ("clear", 0),
    ("reset_counters", 0),
]


def _apply(matching, op: str, args: tuple):
    """Run one operation, returning ('ok', value) or ('raise', type, message)."""
    try:
        if op == "contains":
            return ("ok", tuple(args) in matching)
        value = getattr(matching, op)(*args)
        if isinstance(value, frozenset):
            value = sorted(value)
        return ("ok", value)
    except (ReproError, ValueError) as exc:
        return ("raise", type(exc).__name__, str(exc))


def _snapshot(matching):
    return {
        "edges": sorted(matching.edges),
        "marked": sorted(matching.marked_edges),
        "degrees": [matching.degree(node) for node in range(matching.n_nodes)],
        "additions": matching.additions,
        "removals": matching.removals,
        "len": len(matching),
        "iter": sorted(matching),
    }


def _run_lockstep(ops):
    reference = BMatching(N_NODES, B)
    others = {"fast": FastBMatching(N_NODES, B)}
    for step, (op_idx, nodes) in enumerate(ops):
        op, arity = _OPS[op_idx % len(_OPS)]
        args = tuple(nodes[:arity])
        ref_out = _apply(reference, op, args)
        ref_state = _snapshot(reference)
        for name, kernel in others.items():
            out = _apply(kernel, op, args)
            assert ref_out == out, (
                f"step {step}: {op}{args} diverged: reference={ref_out} {name}={out}"
            )
            assert ref_state == _snapshot(kernel), (
                f"step {step}: {name} state diverged after {op}{args}"
            )


# Node values deliberately include out-of-range ids and duplicate endpoints so
# the harness compares error paths, not just the happy path.
_node = st.integers(min_value=-1, max_value=N_NODES)
_op = st.tuples(st.integers(min_value=0, max_value=len(_OPS) - 1),
                st.tuples(_node, _node))


@settings(max_examples=120, deadline=None)
@given(st.lists(_op, min_size=1, max_size=60))
def test_random_op_sequences_agree(ops):
    """Hypothesis: both kernels agree on arbitrary operation sequences."""
    _run_lockstep(ops)


@pytest.mark.parametrize("seed", range(25))
def test_seeded_long_op_sequences_agree(seed):
    """Long seeded sequences biased towards valid, mark-heavy workloads."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(400):
        op_idx = int(rng.integers(len(_OPS)))
        u = int(rng.integers(N_NODES))
        v = int(rng.integers(N_NODES))
        ops.append((op_idx, (u, v)))
    _run_lockstep(ops)


#: Arguments the hot paths never pass: reversed pairs, self-pairs, nodes just
#: and far out of range (at n = 7 the int keys of (0, 9), (1, 10) and
#: (-1, 10) equal those of the edges (1, 2), (2, 3) and (0, 3)), and numpy
#: integers.  The fast kernel must take the reference path for all of them.
_AWKWARD_PAIRS = [
    (1, 2), (2, 1), (3, 3), (0, 0), (-1, 2), (2, -1), (0, N_NODES), (N_NODES, 0),
    (0, 9), (9, 0), (1, 10), (10, 1), (-1, 10), (-7, -3), (N_NODES, N_NODES),
    (np.int64(1), np.int64(2)), (np.int64(2), np.int64(1)), (np.int64(4), np.int64(4)),
]
_AWKWARD_NODES = [0, N_NODES - 1, -1, N_NODES, 100, -100, np.int64(3), np.int64(-1), True]
#: A matching with marked and unmarked edges for the awkward calls to hit.
_SETUP = [("add", (0, 1)), ("add", (1, 2)), ("add", (2, 3)), ("add", (0, 3)),
          ("mark_for_removal", (2, 3))]
_OP_INDEX = {name: i for i, (name, _) in enumerate(_OPS)}


@pytest.mark.parametrize("op", ["add", "remove", "mark_for_removal", "unmark", "contains"])
def test_awkward_pair_arguments_agree(op):
    """Same returns, exception types and messages, and state, as BMatching."""
    ops = [(_OP_INDEX[name], args) for name, args in _SETUP]
    for pair in _AWKWARD_PAIRS:
        ops += [(_OP_INDEX[op], pair), (_OP_INDEX["contains"], pair)]
        ops += [(_OP_INDEX[name], args) for name, args in _SETUP if name == "add"]
    _run_lockstep(ops)


def test_awkward_degree_arguments_agree():
    ops = [(_OP_INDEX[name], args) for name, args in _SETUP]
    ops += [(_OP_INDEX["degree"], (node,)) for node in _AWKWARD_NODES]
    _run_lockstep(ops)


_HOT_OPS = [_OP_INDEX[name] for name in
            ("add", "remove", "mark_for_removal", "unmark", "contains", "degree")]
_wide_node = st.integers(min_value=-2 * N_NODES, max_value=3 * N_NODES)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_HOT_OPS),
                          st.tuples(st.integers(0, N_NODES - 1),
                                    st.integers(0, N_NODES - 1))),
                min_size=10, max_size=40),
       st.lists(st.tuples(st.sampled_from(_HOT_OPS), st.tuples(_wide_node, _wide_node)),
                min_size=1, max_size=40))
def test_fast_branches_agree_on_wide_node_ranges(valid_ops, wide_ops):
    """In-range ops build a matching; then any node values, far ones included."""
    _run_lockstep(valid_ops + wide_ops)


def test_copy_and_convert_roundtrip():
    """copy() stays within a backend; convert_matching hops between them."""
    rng = np.random.default_rng(3)
    fast = FastBMatching(N_NODES, B)
    for _ in range(40):
        u, v = int(rng.integers(N_NODES)), int(rng.integers(N_NODES))
        if u == v:
            continue
        if fast.has_capacity(u, v):
            fast.add(u, v)
        elif (u, v) in fast:
            fast.mark_for_removal(u, v)
    assert isinstance(fast.copy(), FastBMatching)
    assert _snapshot(fast.copy()) == _snapshot(fast)
    reference = convert_matching(fast, "reference")
    assert isinstance(reference, BMatching)
    assert _snapshot(reference) == _snapshot(fast)
    back = convert_matching(reference, "fast")
    assert isinstance(back, FastBMatching)
    assert _snapshot(back) == _snapshot(fast)
    # Same-backend conversion is the identity, not a copy.
    assert convert_matching(fast, "fast") is fast


def test_make_matching_backends():
    assert isinstance(make_matching(4, 2, "reference"), BMatching)
    assert isinstance(make_matching(4, 2, "fast"), FastBMatching)
    assert isinstance(make_matching(4, 2), FastBMatching)  # default
    with pytest.raises(ReproError):
        make_matching(4, 2, "no-such-kernel")


# --------------------------------------------------------------------------- #
# Replay-level differential testing
# --------------------------------------------------------------------------- #

#: Registry names deduplicated to their canonical spelling.
ALGORITHM_NAMES = sorted({ALGORITHMS.canonical(name) for name in ALGORITHMS.names()})
TOPOLOGY_NAMES = sorted({TOPOLOGIES.canonical(name) for name in TOPOLOGIES.names()})
WORKLOAD_NAMES = sorted({WORKLOADS.canonical(name) for name in WORKLOADS.names()})

_CANONICAL_TOPOLOGY = "leaf-spine"
_CANONICAL_WORKLOAD = "zipf"

#: Constructor parameters for topologies not sized by ``n_racks`` (torus,
#: hypercube; both sized to the 8 racks the traces address) or needing a
#: pinned seed to be reproducible (expander builds a random regular graph).
_TOPOLOGY_PARAMS = {
    "torus": {"rows": 2, "cols": 4},
    "hypercube": {"dimension": 3},
    "expander": {"seed": 7},
}

_WORKLOAD_PARAMS = {
    "hotspot": {"n_hot_pairs": 3},
}


def _spec(algorithm: str, topology: str, workload: str, backend: str) -> ExperimentSpec:
    params = {"solver": "greedy"} if algorithm == "so-bma" else {}
    workload_params = {"n_nodes": 8, "n_requests": 250,
                       **_WORKLOAD_PARAMS.get(workload, {})}
    return ExperimentSpec(
        algorithm={"name": algorithm, "b": 3, "alpha": 4.0, "params": params},
        traffic={"name": workload, "params": workload_params},
        topology={"name": topology, "params": _TOPOLOGY_PARAMS.get(topology, {})},
        simulation={"checkpoints": 6, "matching_backend": backend},
        seed=11,
    )


def _assert_bit_identical(reference, fast, what: str) -> None:
    assert reference.total_routing_cost == fast.total_routing_cost, what
    assert reference.total_reconfiguration_cost == fast.total_reconfiguration_cost, what
    assert reference.matched_fraction == fast.matched_fraction, what
    assert np.array_equal(reference.series.requests, fast.series.requests), what
    assert np.array_equal(reference.series.routing_cost, fast.series.routing_cost), what
    assert np.array_equal(
        reference.series.reconfiguration_cost, fast.series.reconfiguration_cost
    ), what
    assert np.array_equal(
        reference.series.matched_fraction, fast.series.matched_fraction
    ), what


def _compare_backends(algorithm: str, topology: str, workload: str) -> None:
    runs = {}
    for backend in BACKENDS:
        spec = _spec(algorithm, topology, workload, backend)
        trace = spec.build_trace()
        topo = spec.build_topology(trace)
        algo = spec.build_algorithm(topo)
        runs[backend] = (
            run_simulation(algo, trace, SimulationConfig(
                checkpoints=6, matching_backend=backend)),
            sorted(algo.matching.edges),
            sorted(algo.matching.marked_edges),
            algo.matching.additions,
            algo.matching.removals,
        )
    ref = runs["reference"]
    for backend in BACKENDS[1:]:
        what = f"{algorithm} on {topology}/{workload} ({backend} vs reference)"
        other = runs[backend]
        _assert_bit_identical(ref[0], other[0], what)
        assert ref[1:] == other[1:], f"final matching state diverged for {what}"


@pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_replay_identical_across_topologies(algorithm, topology):
    """Every algorithm x every registered topology (canonical workload)."""
    _compare_backends(algorithm, topology, _CANONICAL_WORKLOAD)


@pytest.mark.parametrize("workload", [w for w in WORKLOAD_NAMES
                                      if w != _CANONICAL_WORKLOAD])
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_replay_identical_across_workloads(algorithm, workload):
    """Every algorithm x every registered workload (canonical topology)."""
    _compare_backends(algorithm, _CANONICAL_TOPOLOGY, workload)


def test_backend_recorded_in_spec_roundtrip():
    """matching_backend survives the spec dict/JSON round-trip."""
    for backend in ("reference", "fast"):
        spec = _spec("rbma", "leaf-spine", "zipf", backend)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.simulation.matching_backend == backend
        assert clone == spec


# --------------------------------------------------------------------------- #
# Batched-path coverage: every algorithm, segment-boundary robustness
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_serve_batch_picks_the_replay_path(algorithm):
    """``OnlineBMatchingAlgorithm.serve_batch`` is the one replay-path switch.

    On the fast kernel a Trace segment of ``min_segment`` requests (at least
    one) goes to the algorithm's ``_serve_segment`` in one call and never
    through ``serve``, and a shorter segment goes through ``serve``; on the
    reference kernel ``_serve_segment`` is never called and ``serve`` runs
    once per request.
    """
    topo = TOPOLOGIES.build("leaf-spine", n_racks=8)
    trace = zipf_pair_trace(n_nodes=8, n_requests=400, seed=3)
    for backend in BACKENDS:
        algo = ALGORITHMS.build(algorithm, topo, MatchingConfig(b=3, alpha=4.0), 0)
        algo.rebind_matching_backend(backend)
        if algo.requires_full_trace:
            algo.fit(trace)
        segments, serves = [], []
        serve, serve_segment = algo.serve, algo._serve_segment
        algo.serve = lambda request: serves.append(request) or serve(request)
        algo._serve_segment = (
            lambda *arrays: segments.append(len(arrays[2])) or serve_segment(*arrays)
        )
        size, short = max(algo.min_segment, 1), max(algo.min_segment - 1, 0)
        algo.serve_batch(trace[:size])
        if short:
            algo.serve_batch(trace[size:size + short])
        if backend == "fast":
            assert (segments, len(serves)) == ([size], short), algorithm
        else:
            assert (segments, len(serves)) == ([], size + short), algorithm
        assert algo.requests_served == size + short


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_serve_batch_random_segments_match_serve(algorithm, seed, backend):
    """serve_batch over arbitrary segment splits == request-by-request serve.

    The engine only ever hands out checkpoint- and interval-aligned
    segments; this drives every algorithm's hand-tuned batch loop across
    *random* segment boundaries (including single-request segments) so that
    all state carried between ``serve_batch`` calls — rotation counters,
    predictor windows, expert costs, paging marks — is proven equivalent to
    sequential serving, not just equivalent at checkpoint granularity.  The
    sequential arm always runs on the default fast kernel, so the reference
    leg (where ``serve_batch`` serves request by request) is also a
    cross-backend comparison.
    """
    spec = _spec(algorithm, "leaf-spine", "zipf", backend)
    trace = spec.build_trace()
    topo = spec.build_topology(trace)

    batched = spec.build_algorithm(topo)
    batched.rebind_matching_backend(backend)
    batched.min_segment = 1  # short segments through the batch loop too
    if batched.requires_full_trace:
        batched.fit(trace)
    rng = np.random.default_rng(seed)
    cuts = sorted(rng.choice(len(trace), size=12, replace=False).tolist())
    bounds = [0] + [c for c in cuts if c > 0] + [len(trace)]
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            batched.serve_batch(trace[start:stop])

    sequential = spec.build_algorithm(topo)
    if sequential.requires_full_trace:
        sequential.fit(list(trace.requests()))
    for request in trace.requests():
        sequential.serve(request)

    what = f"{algorithm} (seed {seed})"
    assert batched.total_routing_cost == sequential.total_routing_cost, what
    assert (
        batched.total_reconfiguration_cost == sequential.total_reconfiguration_cost
    ), what
    assert batched.requests_served == sequential.requests_served, what
    assert batched.matched_requests == sequential.matched_requests, what
    assert sorted(batched.matching.edges) == sorted(sequential.matching.edges), what
    assert sorted(batched.matching.marked_edges) == sorted(
        sequential.matching.marked_edges
    ), what
    assert batched.matching.additions == sequential.matching.additions, what
    assert batched.matching.removals == sequential.matching.removals, what
