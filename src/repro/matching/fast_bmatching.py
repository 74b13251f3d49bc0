"""Array-backed fast b-matching kernel.

:class:`FastBMatching` is an observationally identical drop-in replacement for
the reference :class:`~repro.matching.bmatching.BMatching`:

* edges are stored as *int-encoded canonical pairs* ``u * n + v`` (with
  ``u < v``), so hot-path membership tests hash a single machine int instead
  of a tuple, and ``min()`` over keys equals the lexicographic minimum over
  canonical pairs (the reference pruning order);
* per-node degrees live in a numpy integer array, read without re-validating
  the node on every access;
* marked (lazily removed) edges are kept in a *per-node marked index*, so
  :meth:`prune_to_capacity` selects victims without re-scanning or re-sorting
  the incident set on every iteration.

Every public method matches the reference class in return values, mutation
semantics, and raised exception types *and messages*; the differential
harness in ``tests/test_differential_matching.py`` certifies this on
randomized operation sequences and full trace replays.  Hot loops inside
:mod:`repro.core` may additionally read :attr:`FastBMatching.edge_keys` and
:meth:`FastBMatching.encode` to skip tuple construction entirely.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Set

import numpy as np

from ..errors import DegreeConstraintError, MatchingError
from ..types import NodePair, canonical_pair

__all__ = ["FastBMatching"]


class FastBMatching:
    """A degree-bounded dynamic edge set over ``n`` racks (fast kernel).

    Parameters
    ----------
    n_nodes:
        Number of racks.
    b:
        Maximum number of matching edges incident to any rack.
    """

    #: Name under which this kernel is registered in ``MATCHING_BACKENDS``.
    backend_name = "fast"

    def __init__(self, n_nodes: int, b: int):
        if n_nodes < 2:
            raise MatchingError(f"need at least 2 nodes, got {n_nodes}")
        if b < 1:
            raise MatchingError(f"degree bound b must be >= 1, got {b}")
        self._n = int(n_nodes)
        self._b = int(b)
        self._degree = np.zeros(self._n, dtype=np.int64)
        self._edge_keys: Set[int] = set()
        self._incident: List[Set[int]] = [set() for _ in range(self._n)]
        self._marked_keys: Set[int] = set()
        self._marked_at: List[Set[int]] = [set() for _ in range(self._n)]
        # Cumulative counters used for reconfiguration-cost accounting.
        self._additions = 0
        self._removals = 0

    # ------------------------------------------------------------------ #
    # Key encoding
    # ------------------------------------------------------------------ #
    def encode(self, u: int, v: int) -> int:
        """Int key of the canonical pair ``{u, v}`` (``u * n + v`` with u < v)."""
        if u == v:
            raise ValueError(
                f"a node pair must consist of two distinct nodes, got ({u}, {v})"
            )
        return u * self._n + v if u < v else v * self._n + u

    def decode(self, key: int) -> NodePair:
        """Canonical pair of an int key."""
        return (key // self._n, key % self._n)

    @property
    def edge_keys(self) -> Set[int]:
        """Live set of int-encoded edges (hot-path read access; do not mutate)."""
        return self._edge_keys

    @property
    def degree_array(self) -> np.ndarray:
        """Live numpy array of per-node degrees (hot-path read access)."""
        return self._degree

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of racks."""
        return self._n

    @property
    def b(self) -> int:
        """Per-rack degree bound."""
        return self._b

    @property
    def edges(self) -> FrozenSet[NodePair]:
        """Snapshot of the current matching edges (including marked ones)."""
        n = self._n
        return frozenset((k // n, k % n) for k in self._edge_keys)

    @property
    def marked_edges(self) -> FrozenSet[NodePair]:
        """Edges currently marked for lazy removal."""
        n = self._n
        return frozenset((k // n, k % n) for k in self._marked_keys)

    @property
    def additions(self) -> int:
        """Total number of edge insertions so far."""
        return self._additions

    @property
    def removals(self) -> int:
        """Total number of edge removals so far."""
        return self._removals

    def __len__(self) -> int:
        return len(self._edge_keys)

    def __iter__(self) -> Iterator[NodePair]:
        n = self._n
        return iter([(k // n, k % n) for k in self._edge_keys])

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = canonical_pair(*pair)
        return u * self._n + v in self._edge_keys

    def degree(self, node: int) -> int:
        """Number of matching edges incident to ``node``."""
        self._check_node(node)
        return int(self._degree[node])

    def edges_at(self, node: int) -> FrozenSet[NodePair]:
        """Matching edges incident to ``node``."""
        self._check_node(node)
        n = self._n
        return frozenset((k // n, k % n) for k in self._incident[node])

    def is_full(self, node: int) -> bool:
        """Whether ``node`` has reached its degree bound."""
        self._check_node(node)
        return int(self._degree[node]) >= self._b

    def has_capacity(self, u: int, v: int) -> bool:
        """Whether the pair ``{u, v}`` could be added without pruning."""
        a, c = canonical_pair(u, v)
        self._check_node(a)
        self._check_node(c)
        if a * self._n + c in self._edge_keys:
            return False
        degree = self._degree
        return bool(degree[a] < self._b and degree[c] < self._b)

    def is_marked(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is marked for lazy removal."""
        a, c = canonical_pair(u, v)
        return a * self._n + c in self._marked_keys

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, u: int, v: int) -> NodePair:
        """Insert the edge ``{u, v}`` (same contract as the reference kernel)."""
        pair = canonical_pair(u, v)
        self._check_node(pair[0])
        self._check_node(pair[1])
        key = pair[0] * self._n + pair[1]
        if key in self._edge_keys:
            raise MatchingError(f"edge {pair} is already in the matching")
        for endpoint in pair:
            if self._degree[endpoint] >= self._b:
                raise DegreeConstraintError(
                    f"adding {pair} would exceed degree bound b={self._b} at node {endpoint}"
                )
        self._edge_keys.add(key)
        self._incident[pair[0]].add(key)
        self._incident[pair[1]].add(key)
        self._degree[pair[0]] += 1
        self._degree[pair[1]] += 1
        self._additions += 1
        return pair

    def remove(self, u: int, v: int) -> NodePair:
        """Remove the edge ``{u, v}`` (whether marked or not)."""
        pair = canonical_pair(u, v)
        key = pair[0] * self._n + pair[1]
        if key not in self._edge_keys:
            raise MatchingError(f"edge {pair} is not in the matching")
        self._edge_keys.discard(key)
        self._incident[pair[0]].discard(key)
        self._incident[pair[1]].discard(key)
        self._degree[pair[0]] -= 1
        self._degree[pair[1]] -= 1
        if key in self._marked_keys:
            self._marked_keys.discard(key)
            self._marked_at[pair[0]].discard(key)
            self._marked_at[pair[1]].discard(key)
        self._removals += 1
        return pair

    def mark_for_removal(self, u: int, v: int) -> bool:
        """Mark the edge ``{u, v}`` for lazy removal; no-op if absent.

        Returns whether the edge was present (and is now marked).
        """
        pair = canonical_pair(u, v)
        key = pair[0] * self._n + pair[1]
        if key not in self._edge_keys:
            return False
        if key not in self._marked_keys:
            self._marked_keys.add(key)
            self._marked_at[pair[0]].add(key)
            self._marked_at[pair[1]].add(key)
        return True

    def unmark(self, u: int, v: int) -> bool:
        """Clear the removal mark from edge ``{u, v}``; returns whether it was marked."""
        pair = canonical_pair(u, v)
        key = pair[0] * self._n + pair[1]
        if key in self._marked_keys:
            self._marked_keys.discard(key)
            self._marked_at[pair[0]].discard(key)
            self._marked_at[pair[1]].discard(key)
            return True
        return False

    def prune_to_capacity(self, node: int) -> list[NodePair]:
        """Remove marked edges at ``node`` until it has spare capacity.

        Victims are chosen in ascending canonical-pair order, exactly as the
        reference kernel does — int keys order identically to canonical
        pairs — but via the per-node marked index instead of re-scanning the
        incident set each iteration.
        """
        self._check_node(node)
        removed: list[NodePair] = []
        n = self._n
        while self._degree[node] >= self._b:
            marked_here = self._marked_at[node]
            if not marked_here:
                raise DegreeConstraintError(
                    f"node {node} is at degree bound b={self._b} with no marked edges to prune"
                )
            key = min(marked_here)
            victim = (key // n, key % n)
            self.remove(*victim)
            removed.append(victim)
        return removed

    def clear(self) -> None:
        """Remove every edge (counts towards :attr:`removals`)."""
        n = self._n
        for key in list(self._edge_keys):
            self.remove(key // n, key % n)

    def reset_counters(self) -> None:
        """Zero the addition/removal counters without touching the edges."""
        self._additions = 0
        self._removals = 0

    def copy(self) -> "FastBMatching":
        """Deep copy of the structure (used by tests and history collection)."""
        clone = type(self)(self._n, self._b)
        for pair in self.edges:
            clone.add(*pair)
        for pair in self.marked_edges:
            clone.mark_for_removal(*pair)
        clone._additions = self._additions
        clone._removals = self._removals
        return clone

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise MatchingError(f"node {node} out of range for n={self._n}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FastBMatching n={self._n} b={self._b} edges={len(self._edge_keys)} "
            f"marked={len(self._marked_keys)}>"
        )
