"""Rack-to-rack traffic matrices.

A :class:`TrafficMatrix` is a symmetric, zero-diagonal matrix of sampling
probabilities over rack pairs.  It is the spatial component of every
generator in this package: the Microsoft workload samples from it i.i.d.
(exactly the paper's description of that dataset), while the Facebook-style
generators modulate it with a temporal model.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..errors import TrafficError
from ..types import NodePair

__all__ = ["TrafficMatrix"]


class TrafficMatrix:
    """Symmetric probability matrix over rack pairs."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise TrafficError(f"traffic matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise TrafficError("traffic matrix needs at least 2 racks")
        if np.any(m < 0):
            raise TrafficError("traffic matrix entries must be non-negative")
        # Symmetrise and clear the diagonal; requests are unordered pairs.
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        total = m.sum()
        if total <= 0:
            raise TrafficError("traffic matrix must contain positive demand")
        self._matrix = m / total
        n = m.shape[0]
        iu = np.triu_indices(n, k=1)
        self._pair_index = np.stack(iu, axis=1)
        probs = self._matrix[iu] * 2.0  # each unordered pair appears twice in the matrix
        self._pair_probs = probs / probs.sum()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pair_weights(cls, weights: Mapping[NodePair, float], n_nodes: int) -> "TrafficMatrix":
        """Build a matrix from per-pair weights (e.g. request counts)."""
        m = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        for (u, v), w in weights.items():
            if w < 0:
                raise TrafficError(f"negative weight for pair {(u, v)}")
            m[u, v] += w
            m[v, u] += w
        return cls(m)

    @classmethod
    def uniform(cls, n_nodes: int) -> "TrafficMatrix":
        """Uniform demand over all rack pairs."""
        m = np.ones((n_nodes, n_nodes), dtype=np.float64)
        return cls(m)

    @classmethod
    def from_node_popularity(
        cls, popularity: np.ndarray, locality: Optional[np.ndarray] = None
    ) -> "TrafficMatrix":
        """Gravity-model matrix: ``p_{uv} ∝ pop_u · pop_v``, optionally scaled by a locality mask."""
        pop = np.asarray(popularity, dtype=np.float64)
        if np.any(pop < 0) or pop.sum() <= 0:
            raise TrafficError("popularity must be non-negative with positive sum")
        m = np.outer(pop, pop)
        if locality is not None:
            loc = np.asarray(locality, dtype=np.float64)
            if loc.shape != m.shape:
                raise TrafficError(
                    f"locality mask shape {loc.shape} does not match matrix {m.shape}"
                )
            m = m * loc
        return cls(m)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of racks."""
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Normalised symmetric probability matrix (sums to 1, zero diagonal)."""
        return self._matrix

    def pair_probability(self, u: int, v: int) -> float:
        """Probability mass of the unordered pair ``{u, v}``."""
        if u == v:
            return 0.0
        return float(self._matrix[u, v] * 2.0)

    # ------------------------------------------------------------------ #
    # Sampling and statistics
    # ------------------------------------------------------------------ #
    def sample_pairs(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n_samples`` unordered pairs i.i.d.; returns an ``(n, 2)`` array."""
        if n_samples < 0:
            raise TrafficError(f"n_samples must be non-negative, got {n_samples}")
        if n_samples == 0:
            return np.zeros((0, 2), dtype=np.int32)
        idx = rng.choice(len(self._pair_probs), size=n_samples, p=self._pair_probs)
        return self._pair_index[idx].astype(np.int32)

    def top_pairs(self, k: int) -> list[tuple[NodePair, float]]:
        """The ``k`` heaviest pairs with their probability mass."""
        order = np.argsort(-self._pair_probs)[:k]
        return [
            ((int(self._pair_index[i, 0]), int(self._pair_index[i, 1])), float(self._pair_probs[i]))
            for i in order
        ]

    def skew_top_share(self, fraction: float = 0.01) -> float:
        """Fraction of total demand carried by the heaviest ``fraction`` of pairs.

        A standard spatial-skew summary: the paper's Microsoft matrix is
        "significantly skewed", i.e. this share is large.
        """
        if not (0 < fraction <= 1):
            raise TrafficError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(round(fraction * len(self._pair_probs))))
        top = np.sort(self._pair_probs)[::-1][:k]
        return float(top.sum())

    def entropy(self) -> float:
        """Shannon entropy (bits) of the pair distribution; lower = more skewed."""
        p = self._pair_probs[self._pair_probs > 0]
        return float(-(p * np.log2(p)).sum())

    def max_entropy(self) -> float:
        """Entropy of the uniform distribution over the same number of pairs."""
        return float(np.log2(len(self._pair_probs)))
