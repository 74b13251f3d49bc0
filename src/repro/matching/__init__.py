"""b-matching data structures and static solvers.

A *b-matching* over racks ``0..n-1`` is a set of node pairs (the reconfigurable
optical links) in which every rack is incident to at most ``b`` pairs.  The
online algorithms in :mod:`repro.core` maintain a dynamic b-matching; the
offline baseline SO-BMA uses the static maximum-weight solvers in
:mod:`repro.matching.static_solver`.

Two kernel backends
-------------------
The dynamic structure exists in two observationally identical
implementations, selected by name through :data:`MATCHING_BACKENDS` /
:func:`make_matching` and wired into experiments via
``SimulationConfig.matching_backend``:

``"reference"`` — :class:`~repro.matching.bmatching.BMatching`
    The original, readable kernel: plain sets of canonical pair tuples.  It is
    the semantic ground truth.  It has no int edge keys, so
    ``OnlineBMatchingAlgorithm.serve_batch`` serves every segment on it
    request by request through ``serve``: a reference run exercises the exact
    pre-optimization code path.

``"fast"`` (default) — :class:`~repro.matching.fast_bmatching.FastBMatching`
    The array-backed kernel: int-encoded edges (``u * n + v``), numpy degree
    arrays, and a per-node marked-edge index so lazy-removal pruning never
    re-sorts.  It additionally exposes ``edge_keys``/``encode`` so the
    batched replays in :mod:`repro.core` (each algorithm's
    ``_serve_segment``) can test membership on machine ints.

Both backends are guarded by a differential harness
(``tests/test_differential_matching.py``) that replays randomized operation
sequences and whole traces through them in lockstep and requires identical
edges, marks, counters, exceptions, and bit-identical run costs, plus
golden-trace pins (``tests/test_regression_pins.py``) that fail loudly if
any kernel's observable behaviour drifts.

Static solver backends
----------------------
The *static* maximum-weight solvers behind SO-BMA follow the same tier
pattern through :data:`SOLVER_BACKENDS` / ``MatchingConfig.solver_backend``:
``"nx"`` (the original NetworkX blossom path, kept as reference) and
``"array"`` (default — the flat-array Galil kernel in
:mod:`repro.matching.blossom`, behaviour-identical to NetworkX).  Iterated
solves are memoised on a demand fingerprint and ``b``-sweeps share nested
prefixes; see :mod:`repro.matching.static_solver` and
``tests/test_solver_backends.py``.
"""

from typing import Optional

from .bmatching import BMatching
from .fast_bmatching import FastBMatching
from .static_solver import (
    DEFAULT_SOLVER_BACKEND,
    SOLVER_BACKENDS,
    exact_max_weight_b_matching,
    greedy_b_matching,
    iterated_max_weight_b_matching,
    matching_weight,
    resolve_solver_backend,
    solve_b_rounds,
    solver_cache_clear,
    solver_cache_info,
)
from .validation import check_b_matching, is_valid_b_matching
from ..errors import MatchingError

__all__ = [
    "BMatching",
    "FastBMatching",
    "MATCHING_BACKENDS",
    "DEFAULT_MATCHING_BACKEND",
    "make_matching",
    "convert_matching",
    "SOLVER_BACKENDS",
    "DEFAULT_SOLVER_BACKEND",
    "resolve_solver_backend",
    "greedy_b_matching",
    "iterated_max_weight_b_matching",
    "solve_b_rounds",
    "exact_max_weight_b_matching",
    "solver_cache_info",
    "solver_cache_clear",
    "matching_weight",
    "is_valid_b_matching",
    "check_b_matching",
]

#: Name -> class map of the dynamic b-matching kernels.
MATCHING_BACKENDS = {
    BMatching.backend_name: BMatching,
    FastBMatching.backend_name: FastBMatching,
}

#: Backend used when nothing is specified.
DEFAULT_MATCHING_BACKEND = FastBMatching.backend_name


def numba_backend_active() -> bool:
    """Always ``False``: the library has no compiled kernels.

    Kept only because the end-to-end benchmark (``perfbench/run.py``)
    records it in its environment block; nothing in the library calls it.
    """
    return False


def make_matching(n_nodes: int, b: int, backend: Optional[str] = None):
    """Construct a dynamic b-matching using the named kernel backend.

    ``backend`` is one of :data:`MATCHING_BACKENDS` (``None`` means
    :data:`DEFAULT_MATCHING_BACKEND`).
    """
    name = DEFAULT_MATCHING_BACKEND if backend is None else backend
    try:
        cls = MATCHING_BACKENDS[name]
    except KeyError:
        raise MatchingError(
            f"unknown matching backend {name!r} "
            f"(available: {', '.join(sorted(MATCHING_BACKENDS))})"
        ) from None
    return cls(n_nodes, b)


def convert_matching(matching, backend: str):
    """The same matching state rebuilt on the named backend.

    Edges, marks, and the addition/removal counters carry over exactly; the
    input structure is left untouched.  Returns the input unchanged when it
    is already on the requested backend.
    """
    if matching.backend_name == backend:
        return matching
    clone = make_matching(matching.n_nodes, matching.b, backend)
    for pair in sorted(matching.edges):
        clone.add(*pair)
    for pair in sorted(matching.marked_edges):
        clone.mark_for_removal(*pair)
    clone._additions = matching.additions
    clone._removals = matching.removals
    return clone
