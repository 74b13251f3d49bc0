"""Array-backed fast b-matching kernel.

:class:`FastBMatching` is an observationally identical drop-in replacement for
the reference :class:`~repro.matching.bmatching.BMatching`:

* edges are stored as *int-encoded canonical pairs* ``u * n + v`` (with
  ``u < v``), so hot-path membership tests hash a single machine int instead
  of a tuple, and ``min()`` over keys equals the lexicographic minimum over
  canonical pairs (the reference pruning order);
* per-node degrees live in a plain Python list (a list read and an int
  comparison cost a fraction of a numpy scalar read);
* ``add``, ``remove``, ``mark_for_removal``, ``unmark``, ``in`` and
  ``degree`` skip :func:`~repro.types.canonical_pair` and the node-range
  check when handed a canonical in-range pair (or an in-range node), which
  is what the hot paths pass; other arguments take the reference calls in
  the reference order, so errors keep their types and messages.  A pair
  with an out-of-range node is never an edge, even where its int key would
  alias one;
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

from typing import FrozenSet, Iterator, List, Set, Tuple

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
        self._degree: List[int] = [0] * self._n
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
        n = self._n
        if type(pair) is tuple and len(pair) == 2:
            u, v = pair
            if 0 <= u < v < n:
                return u * n + v in self._edge_keys
        u, v = canonical_pair(*pair)
        if 0 <= u and v < n:
            return u * n + v in self._edge_keys
        return False

    def degree(self, node: int) -> int:
        """Number of matching edges incident to ``node``."""
        if not 0 <= node < self._n:
            self._check_node(node)
        return self._degree[node]

    def edges_at(self, node: int) -> FrozenSet[NodePair]:
        """Matching edges incident to ``node``."""
        self._check_node(node)
        n = self._n
        return frozenset((k // n, k % n) for k in self._incident[node])

    def is_full(self, node: int) -> bool:
        """Whether ``node`` has reached its degree bound."""
        self._check_node(node)
        return self._degree[node] >= self._b

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
        n = self._n
        if not 0 <= u < v < n:
            u, v = canonical_pair(u, v)
            self._check_node(u)
            self._check_node(v)
        key = u * n + v
        if key in self._edge_keys:
            raise MatchingError(f"edge {(u, v)} is already in the matching")
        degree = self._degree
        for endpoint in (u, v):
            if degree[endpoint] >= self._b:
                raise DegreeConstraintError(
                    f"adding {(u, v)} would exceed degree bound b={self._b} at node {endpoint}"
                )
        self._edge_keys.add(key)
        self._incident[u].add(key)
        self._incident[v].add(key)
        degree[u] += 1
        degree[v] += 1
        self._additions += 1
        return (u, v)

    def remove(self, u: int, v: int) -> NodePair:
        """Remove the edge ``{u, v}`` (whether marked or not)."""
        n = self._n
        if 0 <= u < v < n:
            key = u * n + v
        else:
            u, v, key = self._checked_key(u, v)
        if key not in self._edge_keys:
            raise MatchingError(f"edge {(u, v)} is not in the matching")
        self._edge_keys.discard(key)
        self._incident[u].discard(key)
        self._incident[v].discard(key)
        self._degree[u] -= 1
        self._degree[v] -= 1
        if key in self._marked_keys:
            self._marked_keys.discard(key)
            self._marked_at[u].discard(key)
            self._marked_at[v].discard(key)
        self._removals += 1
        return (u, v)

    def mark_for_removal(self, u: int, v: int) -> bool:
        """Mark the edge ``{u, v}`` for lazy removal; no-op if absent.

        Returns whether the edge was present (and is now marked).
        """
        n = self._n
        if 0 <= u < v < n:
            key = u * n + v
        else:
            u, v, key = self._checked_key(u, v)
        if key not in self._edge_keys:
            return False
        if key not in self._marked_keys:
            self._marked_keys.add(key)
            self._marked_at[u].add(key)
            self._marked_at[v].add(key)
        return True

    def unmark(self, u: int, v: int) -> bool:
        """Clear the removal mark from edge ``{u, v}``; returns whether it was marked."""
        n = self._n
        if 0 <= u < v < n:
            key = u * n + v
        else:
            u, v, key = self._checked_key(u, v)
        if key in self._marked_keys:
            self._marked_keys.discard(key)
            self._marked_at[u].discard(key)
            self._marked_at[v].discard(key)
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
    def _checked_key(self, u: int, v: int) -> Tuple[int, int, int]:
        """``(u, v, key)`` of a pair not given canonical and in range.

        ``canonical_pair`` raises as in the reference kernel; a pair with an
        out-of-range node gets key ``-1``, which is never an edge.
        """
        u, v = canonical_pair(u, v)
        return u, v, (u * self._n + v if 0 <= u and v < self._n else -1)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise MatchingError(f"node {node} out of range for n={self._n}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FastBMatching n={self._n} b={self._b} edges={len(self._edge_keys)} "
            f"marked={len(self._marked_keys)}>"
        )
