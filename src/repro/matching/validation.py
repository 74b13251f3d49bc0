"""Validation helpers for b-matchings.

Used throughout the tests (including the hypothesis property tests) and by
the simulation engine's optional consistency checks to assert that every
algorithm maintains a feasible matching at all times.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..errors import MatchingError
from ..types import NodePair, canonical_pair

__all__ = ["is_valid_b_matching", "check_b_matching", "degree_histogram"]


def degree_histogram(edges: Iterable[NodePair], n_nodes: int) -> list[int]:
    """Per-node matching degree for an edge set."""
    degrees = [0] * n_nodes
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def is_valid_b_matching(edges: Iterable[NodePair], n_nodes: int, b: int) -> bool:
    """Whether ``edges`` forms a valid b-matching over ``n_nodes`` racks."""
    try:
        check_b_matching(edges, n_nodes, b)
    except MatchingError:
        return False
    return True


def check_b_matching(edges: Iterable[NodePair], n_nodes: int, b: int) -> None:
    """Raise :class:`MatchingError` describing the first violated constraint.

    Checks: canonical distinct endpoints in range, no duplicate edges, and
    per-node degree at most ``b``.
    """
    seen: set[NodePair] = set()
    degrees: Counter[int] = Counter()
    for edge in edges:
        u, v = edge
        if u == v:
            raise MatchingError(f"self-loop {edge} in matching")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise MatchingError(f"edge {edge} has endpoint out of range (n={n_nodes})")
        pair = canonical_pair(u, v)
        if pair in seen:
            raise MatchingError(f"duplicate edge {pair} in matching")
        seen.add(pair)
        degrees[u] += 1
        degrees[v] += 1
    for node, deg in degrees.items():
        if deg > b:
            raise MatchingError(f"node {node} has matching degree {deg} > b={b}")
