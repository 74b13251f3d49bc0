"""Static maximum-weight b-matching solvers.

The paper's offline baseline SO-BMA computes a maximum weight matching over
the aggregate demand of the whole trace using the blossom algorithm (Galil /
Edmonds).  For ``b > 1`` we provide:

* :func:`iterated_max_weight_b_matching` — runs the blossom algorithm ``b``
  times, removing chosen edges between rounds.  Each round is a (1-)matching,
  so the union trivially satisfies the degree bound; this mirrors how the
  optical switches are provisioned (one matching per switch) and is the
  solver used by SO-BMA.
* :func:`solve_b_rounds` — the same iterated construction, but returning
  *every* nested prefix ``b = 1..b_max`` from a single pass.  Round ``i``
  depends only on rounds ``1..i-1``, so a sweep over ``b`` needs ``b_max``
  blossom rounds instead of ``1 + 2 + ... + b_max``.
* :func:`greedy_b_matching` — the classic 1/2-approximate greedy that scans
  edges by decreasing weight; much faster, used for large ablations.
* :func:`exact_max_weight_b_matching` — exhaustive search for tiny instances,
  used by the tests to certify the quality of the two heuristics.

Solver backends
---------------
The per-round blossom solve is pluggable through :data:`SOLVER_BACKENDS`
(a :class:`~repro.experiments.registry.Registry`, so misspelled names get
"did you mean ...?" suggestions), mirroring the dynamic-kernel
``MATCHING_BACKENDS`` tier:

``"nx"``
    The original NetworkX path (kept as the reference): builds a graph per
    round and calls ``nx.max_weight_matching``.  It is the only solver code
    that imports NetworkX, and it does so when it runs.
``"array"`` (default)
    :func:`repro.matching.blossom.max_weight_matching_arrays` — the same
    Galil algorithm on flat int-indexed lists, behaviour-identical to the
    NetworkX implementation (same matchings, not merely equal weight), about
    3.5x faster per round before memoisation (``BENCH_solver.json``).

Demand-fingerprint memoisation
------------------------------
Iterated solves are memoised in a small process-local LRU keyed by a stable
hash of (canonical weights in insertion order, ``n_nodes``, effective
backend).  The cache stores the *incremental sweep state* (solved rounds
plus residual weights), so a request for ``b = 6`` after ``b = 9`` is a pure
cache hit and a request for ``b = 9`` after ``b = 3`` only solves rounds
4..9 — repetitions, benchmark arms, and ``b``-grids that aggregate the same
trace pay for each blossom round at most once per process.  The LRU holds
``_CACHE_SIZE`` (16) entries.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..errors import SolverError
from ..experiments.registry import Registry
from ..obs import count, reset, snapshot
from ..types import NodePair, canonical_pair
from .blossom import max_weight_matching_arrays
from .validation import check_b_matching

__all__ = [
    "SOLVER_BACKENDS",
    "DEFAULT_SOLVER_BACKEND",
    "resolve_solver_backend",
    "matching_weight",
    "greedy_b_matching",
    "iterated_max_weight_b_matching",
    "solve_b_rounds",
    "exact_max_weight_b_matching",
    "solver_cache_info",
    "solver_cache_clear",
    "export_solver_rounds",
    "import_solver_rounds",
]


def _canonical_weights(weights: Mapping[NodePair, float]) -> Dict[NodePair, float]:
    """Canonicalise pair keys and drop non-positive weights."""
    canon: Dict[NodePair, float] = {}
    for (u, v), w in weights.items():
        if w <= 0:
            continue
        pair = canonical_pair(u, v)
        canon[pair] = canon.get(pair, 0.0) + float(w)
    return canon


def matching_weight(edges: Iterable[NodePair], weights: Mapping[NodePair, float]) -> float:
    """Total weight of an edge set under ``weights`` (missing edges weigh 0).

    Only the *queried* edges are canonicalised — ``O(|edges|)`` — instead of
    rebuilding a canonical copy of the whole weight mapping per call, which
    made this ``O(|weights|)`` inside solver-quality checks and analysis
    loops.  When a mapping pathologically contains both orientations of a
    pair, the canonical ``(min, max)`` key wins.
    """
    total = 0.0
    for u, v in edges:
        a, b = canonical_pair(u, v)
        w = weights.get((a, b))
        if w is None:
            w = weights.get((b, a), 0.0)
        total += w
    return float(total)


def greedy_b_matching(
    weights: Mapping[NodePair, float], n_nodes: int, b: int
) -> Set[NodePair]:
    """Greedy b-matching: scan pairs by decreasing weight, keep if both ends have capacity.

    This is a 1/2-approximation of the maximum-weight b-matching and runs in
    ``O(m log m)`` for ``m`` weighted pairs.

    Pairs are scanned in ``(-weight, pair)`` order, a total order, and
    non-positive weights are dropped, so when each pair appears in one
    orientation the result does not depend on the mapping's order.  (A pair
    given in both orientations is summed in mapping order first.)  A NaN or
    infinite weight, given or summed, raises :class:`SolverError`.
    """
    if b < 1:
        raise SolverError(f"b must be >= 1, got {b}")
    canon = _validated_canonical_weights(weights, n_nodes)
    degrees = [0] * n_nodes
    chosen: Set[NodePair] = set()
    # Sort by weight descending; ties broken by the pair itself so the result
    # is deterministic across runs and platforms.
    for pair, _w in sorted(canon.items(), key=lambda kv: (-kv[1], kv[0])):
        u, v = pair
        if degrees[u] < b and degrees[v] < b:
            chosen.add(pair)
            degrees[u] += 1
            degrees[v] += 1
    return chosen


# --------------------------------------------------------------------------- #
# Solver backends: one maximum-weight matching round over residual weights
# --------------------------------------------------------------------------- #

#: Name -> round-solver registry.  A round solver takes the residual weight
#: dict (canonical pairs, insertion order = tie-breaking order) and the node
#: count, and returns one maximum-weight (1-)matching as canonical pairs.
SOLVER_BACKENDS: Registry = Registry("solver backend")

#: Backend used when nothing is specified (``MatchingConfig.solver_backend``
#: left at ``None``).
DEFAULT_SOLVER_BACKEND = "array"

@SOLVER_BACKENDS.register("nx")
def _solve_round_nx(remaining: Mapping[NodePair, float], n_nodes: int) -> Set[NodePair]:
    """One blossom round via NetworkX (the original SO-BMA code path)."""
    import networkx as nx

    class _DirectAccessGraph(nx.Graph):
        """``nx.Graph`` whose ``G[v]`` skips the AtlasView wrapper.

        The blossom algorithm's inner ``slack()`` reads ``G[v][w]["weight"]``
        millions of times; the stock ``__getitem__`` allocates a read-only
        AtlasView per call.  Returning the underlying adjacency dict yields
        the very same edge-data mappings (so results are identical) without
        the wrapper allocation, roughly halving solver time on dense demand
        graphs.
        """

        def __getitem__(self, n):
            return self._adj[n]

    g = _DirectAccessGraph()
    g.add_nodes_from(range(n_nodes))
    for (u, v), w in remaining.items():
        g.add_edge(u, v, weight=w)
    matching = nx.max_weight_matching(g, maxcardinality=False, weight="weight")
    return {canonical_pair(u, v) for u, v in matching}


@SOLVER_BACKENDS.register("array")
def _solve_round_array(remaining: Mapping[NodePair, float], n_nodes: int) -> Set[NodePair]:
    """One blossom round on the flat-array kernel (behaviour-identical)."""
    return max_weight_matching_arrays(
        n_nodes, [(u, v, w) for (u, v), w in remaining.items()]
    )


def resolve_solver_backend(backend: Optional[str]) -> str:
    """Validated canonical backend name for a requested solver backend.

    ``None`` means :data:`DEFAULT_SOLVER_BACKEND`.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` with "did you mean ...?"
    suggestions.
    """
    name = DEFAULT_SOLVER_BACKEND if backend is None else backend
    SOLVER_BACKENDS.resolve(name)  # raises with suggestions on unknown names
    return SOLVER_BACKENDS.canonical(name)


# --------------------------------------------------------------------------- #
# Demand-fingerprint memoisation of the iterated construction
# --------------------------------------------------------------------------- #


@dataclass
class _SweepState:
    """Incremental state of one iterated solve: rounds done so far.

    ``cumulative[i]`` is the union of rounds ``1..i+1``; ``remaining`` is the
    residual weight dict those rounds have not claimed.  Extending the state
    by more rounds never changes the rounds already recorded, which is what
    makes prefix sharing across ``b`` values exact.
    """

    remaining: Dict[NodePair, float]
    cumulative: List[Set[NodePair]] = field(default_factory=list)
    exhausted: bool = False


#: Max memo entries; the least recently used entry is evicted beyond it.
_CACHE_SIZE = 16

_SOLVE_CACHE: "OrderedDict[Tuple[str, int, str], _SweepState]" = OrderedDict()


def _demand_fingerprint(canon: Mapping[NodePair, float], n_nodes: int) -> str:
    """Stable digest of canonical weights *in insertion order* plus ``n``.

    Insertion order is part of the key because it is the solver's
    tie-breaking order: two weight dicts with equal content but different
    order may legitimately produce different (equal-weight) matchings.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(n_nodes).tobytes())
    if canon:
        keys = np.fromiter(
            (u * n_nodes + v for u, v in canon), dtype=np.int64, count=len(canon)
        )
        vals = np.fromiter(canon.values(), dtype=np.float64, count=len(canon))
        h.update(keys.tobytes())
        h.update(vals.tobytes())
    return h.hexdigest()


def _validated_canonical_weights(
    weights: Mapping[NodePair, float], n_nodes: int
) -> Dict[NodePair, float]:
    """Canonical weights with every pair checked against ``n_nodes`` and
    every weight finite (NaN is not ``<= 0``, so the canonical drop keeps it)."""
    canon = _canonical_weights(weights)
    inf = math.inf
    for (u, v), w in canon.items():
        # One test per pair: greedy_b_matching validates on every call.
        # ``w < inf`` fails for NaN and +inf; -inf was dropped as non-positive.
        if not (0 <= u < n_nodes and 0 <= v < n_nodes and w < inf):
            if w < inf:
                raise SolverError(f"pair {(u, v)} out of range for n={n_nodes}")
            raise SolverError(f"non-finite weight {w!r} for pair {(u, v)}")
    return canon


def _sweep_state(
    weights: Mapping[NodePair, float], n_nodes: int, backend: str
) -> Tuple[str, _SweepState]:
    """This demand's fingerprint and its (possibly cached) sweep state on ``backend``."""
    canon = _validated_canonical_weights(weights, n_nodes)
    fingerprint = _demand_fingerprint(canon, n_nodes)
    key = (backend, n_nodes, fingerprint)
    state = _SOLVE_CACHE.get(key)
    if state is None:
        count("solver.memo_misses")
        state = _SweepState(remaining=canon)
        _SOLVE_CACHE[key] = state
    else:
        count("solver.memo_hits")
        _SOLVE_CACHE.move_to_end(key)
    while len(_SOLVE_CACHE) > _CACHE_SIZE:
        _SOLVE_CACHE.popitem(last=False)
        count("solver.memo_evictions")
    return fingerprint, state


def _extend_state(state: _SweepState, b: int, backend: str, n_nodes: int) -> None:
    """Solve further rounds until ``b`` rounds are recorded (or exhausted)."""
    solve_round = SOLVER_BACKENDS.resolve(backend)
    while len(state.cumulative) < b and not state.exhausted:
        if not state.remaining:
            state.exhausted = True
            break
        round_matching = solve_round(state.remaining, n_nodes)
        if not round_matching:
            state.exhausted = True
            break
        union = set(state.cumulative[-1]) if state.cumulative else set()
        union.update(round_matching)
        for pair in round_matching:
            state.remaining.pop(pair, None)
        state.cumulative.append(union)


def _prefix_result(state: _SweepState, b: int) -> Set[NodePair]:
    if not state.cumulative:
        return set()
    return set(state.cumulative[min(b, len(state.cumulative)) - 1])


def solver_cache_info() -> Dict[str, int]:
    """Hits, misses and evictions of the solver memo (the ``solver.memo_*``
    names on :mod:`repro.obs`), and its current and maximum size."""
    counts = snapshot("solver.memo_")
    info = {k: counts.get(f"solver.memo_{k}", 0) for k in ("hits", "misses", "evictions")}
    return {**info, "currsize": len(_SOLVE_CACHE), "maxsize": _CACHE_SIZE}


def solver_cache_clear() -> None:
    """Drop all memoised sweep states and reset the ``solver.`` counts."""
    _SOLVE_CACHE.clear()
    reset("solver.")


def iterated_max_weight_b_matching(
    weights: Mapping[NodePair, float],
    n_nodes: int,
    b: int,
    backend: Optional[str] = None,
) -> Set[NodePair]:
    """b rounds of maximum-weight (1-)matching via the blossom algorithm.

    Round ``i`` computes a maximum-weight matching on the pairs not selected
    in earlier rounds; the union of the ``b`` rounds is returned.  With
    ``b = 1`` this is exactly the paper's SO-BMA construction.

    ``backend`` selects the per-round kernel from :data:`SOLVER_BACKENDS`
    (``None`` = :data:`DEFAULT_SOLVER_BACKEND`); all backends produce the
    same matchings.  Results are memoised per process on a fingerprint of
    the canonical weights, and nested prefixes share work: solving the same
    demand at a smaller ``b`` afterwards is a pure cache hit, a larger ``b``
    only solves the additional rounds.
    """
    if b < 1:
        raise SolverError(f"b must be >= 1, got {b}")
    effective = resolve_solver_backend(backend)
    _, state = _sweep_state(weights, n_nodes, effective)
    _extend_state(state, b, effective, n_nodes)
    chosen = _prefix_result(state, b)
    check_b_matching(chosen, n_nodes, b)
    return chosen


def solve_b_rounds(
    weights: Mapping[NodePair, float],
    n_nodes: int,
    b_max: int,
    backend: Optional[str] = None,
) -> List[Set[NodePair]]:
    """All nested iterated b-matchings for ``b = 1..b_max`` in one pass.

    ``solve_b_rounds(w, n, b_max)[k - 1] == iterated_max_weight_b_matching(w, n, k)``
    for every ``k <= b_max``, but the whole sweep costs ``b_max`` blossom
    rounds instead of ``1 + 2 + ... + b_max``.  Shares the same memo as
    :func:`iterated_max_weight_b_matching`.
    """
    if b_max < 1:
        raise SolverError(f"b_max must be >= 1, got {b_max}")
    effective = resolve_solver_backend(backend)
    _, state = _sweep_state(weights, n_nodes, effective)
    _extend_state(state, b_max, effective, n_nodes)
    results = [_prefix_result(state, k) for k in range(1, b_max + 1)]
    for k, chosen in enumerate(results, start=1):
        check_b_matching(chosen, n_nodes, k)
    return results


def export_solver_rounds(
    weights: Mapping[NodePair, float],
    n_nodes: int,
    b_max: int,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Solve ``b_max`` rounds and return a JSON-safe snapshot of the memo state.

    The payload carries everything :func:`import_solver_rounds` needs to seed
    another process's solver memo: the demand fingerprint (insertion order
    included, since it is the tie-breaking order), the per-round incremental
    matchings, and the residual weights *in insertion order* so further
    rounds extend identically.  An execution planner can therefore solve the
    shared SO-BMA demand once in the parent and ship the rounds to every
    worker, instead of each per-process memo re-solving the same aggregate.
    """
    if b_max < 1:
        raise SolverError(f"b_max must be >= 1, got {b_max}")
    effective = resolve_solver_backend(backend)
    fingerprint, state = _sweep_state(weights, n_nodes, effective)
    _extend_state(state, b_max, effective, n_nodes)
    rounds: List[List[List[int]]] = []
    prev: Set[NodePair] = set()
    for union in state.cumulative:
        rounds.append(sorted([int(u), int(v)] for u, v in union - prev))
        prev = union
    return {
        "version": 1,
        "backend": effective,
        "n_nodes": int(n_nodes),
        "fingerprint": fingerprint,
        "rounds": rounds,
        "remaining": [[int(u), int(v), float(w)] for (u, v), w in state.remaining.items()],
        "exhausted": bool(state.exhausted),
    }


def import_solver_rounds(payload: Mapping[str, object]) -> bool:
    """Seed the solver memo from an :func:`export_solver_rounds` payload.

    Returns ``True`` when the memo was seeded, ``False`` when the import was
    skipped because an existing entry already holds at least as many solved
    rounds.  After a successful
    import, solving the same demand on the same backend is a pure cache hit
    up to the exported ``b``; larger ``b`` values extend from the shipped
    residual weights exactly as the exporting process would have.
    """
    if payload.get("version") != 1:
        raise SolverError(
            f"unsupported solver-rounds payload version: {payload.get('version')!r}"
        )
    backend = str(payload["backend"])
    n_nodes = int(payload["n_nodes"])  # type: ignore[arg-type]
    key = (backend, n_nodes, str(payload["fingerprint"]))
    rounds = payload["rounds"]
    existing = _SOLVE_CACHE.get(key)
    if existing is not None and len(existing.cumulative) >= len(rounds):  # type: ignore[arg-type]
        _SOLVE_CACHE.move_to_end(key)
        return False
    cumulative: List[Set[NodePair]] = []
    union: Set[NodePair] = set()
    for round_pairs in rounds:  # type: ignore[union-attr]
        union = set(union)
        union.update((int(u), int(v)) for u, v in round_pairs)
        cumulative.append(union)
    remaining: Dict[NodePair, float] = {
        (int(u), int(v)): float(w) for u, v, w in payload["remaining"]  # type: ignore[union-attr]
    }
    _SOLVE_CACHE[key] = _SweepState(
        remaining=remaining, cumulative=cumulative, exhausted=bool(payload["exhausted"])
    )
    _SOLVE_CACHE.move_to_end(key)
    while len(_SOLVE_CACHE) > _CACHE_SIZE:
        _SOLVE_CACHE.popitem(last=False)
        count("solver.memo_evictions")
    return True


def exact_max_weight_b_matching(
    weights: Mapping[NodePair, float], n_nodes: int, b: int, max_edges: int = 20
) -> Set[NodePair]:
    """Exhaustive maximum-weight b-matching for tiny instances.

    Enumerates subsets of the positively weighted pairs — exponential in the
    number of pairs, so ``max_edges`` guards against accidental use on large
    inputs.  Intended for tests certifying the heuristics.  Subsets are
    enumerated in the same (size-major, lexicographic) order as the original
    ``itertools.combinations`` formulation so equal-weight ties resolve
    identically, but branches whose prefix already violates the degree bound
    are cut immediately and sizes beyond ``n * b / 2`` (the most edges any
    b-matching can hold) are skipped entirely — which keeps the certifier
    usable at ``max_edges = 20`` instead of timing out.
    """
    if b < 1:
        raise SolverError(f"b must be >= 1, got {b}")
    canon = _canonical_weights(weights)
    if len(canon) > max_edges:
        raise SolverError(
            f"exact solver limited to {max_edges} weighted pairs, got {len(canon)}"
        )
    pairs = sorted(canon)
    m = len(pairs)
    degrees = [0] * n_nodes
    best: Set[NodePair] = set()
    best_weight = 0.0
    chosen: List[NodePair] = []

    def extend(start: int, size: int, total: float) -> None:
        nonlocal best, best_weight
        if size == 0:
            if total > best_weight:
                best_weight = total
                best = set(chosen)
            return
        # Not enough pairs left to reach the requested size.
        for i in range(start, m - size + 1):
            u, v = pairs[i]
            if degrees[u] >= b or degrees[v] >= b:
                continue  # every extension of this prefix is infeasible too
            degrees[u] += 1
            degrees[v] += 1
            chosen.append((u, v))
            extend(i + 1, size - 1, total + canon[(u, v)])
            chosen.pop()
            degrees[u] -= 1
            degrees[v] -= 1

    for r in range(min(m, n_nodes * b // 2) + 1):
        extend(0, r, 0.0)
    return best
