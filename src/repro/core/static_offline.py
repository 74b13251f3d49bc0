"""SO-BMA — static offline maximum-weight b-matching baseline.

The paper's strongest comparison point is a *static* matching computed with
full knowledge of the trace: aggregate the demand of the whole request
sequence into pair weights, compute a maximum-weight b-matching once, install
it, and never reconfigure.  SO-BMA captures all spatial structure but no
temporal structure, which is why the paper observes it winning clearly on the
(temporally structure-free) Microsoft trace while being roughly on par with
the online algorithms on the Facebook traces.

Weights are the *routing-cost savings* of matching a pair: each request to a
pair of fixed-network length ``ℓ_e`` saves ``ℓ_e − 1`` when served by a
matching edge.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError
from ..matching import (
    DEFAULT_SOLVER_BACKEND,
    greedy_b_matching,
    iterated_max_weight_b_matching,
    resolve_solver_backend,
)
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

__all__ = ["StaticOfflineBMA"]


class StaticOfflineBMA(OnlineBMatchingAlgorithm):
    """Static offline maximum-weight b-matching (SO-BMA).

    Parameters
    ----------
    solver:
        ``"blossom"`` (default) computes ``b`` rounds of maximum-weight
        matching with the blossom algorithm, as in the paper; ``"greedy"``
        uses the 1/2-approximate greedy instead (much faster for large
        sweeps).  The blossom *kernel* is selected by
        ``config.solver_backend`` (see
        :data:`repro.matching.SOLVER_BACKENDS`); all kernels produce
        identical matchings.  After :meth:`fit`, :attr:`solver_provenance`
        records the requested backend and the kernel that actually ran,
        and the simulation engine copies that record into
        ``RunResult.extra``.
    """

    name = "so-bma"
    requires_full_trace = True

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        solver: str = "blossom",
    ):
        super().__init__(topology, config, rng)
        if solver not in ("blossom", "greedy"):
            raise ConfigurationError(f"unknown SO-BMA solver {solver!r}")
        self.solver = solver
        self.solver_provenance: Optional[Dict[str, str]] = None
        self._fitted = False

    def aggregate_demand(self, requests: Sequence[Request]) -> Dict[NodePair, float]:
        """Aggregate a trace into per-pair routing-cost savings.

        These are exactly the weights :meth:`fit` hands the static solver
        (pairs in first-occurrence order, which is the solver's tie-breaking
        order); exposed so benchmarks and analyses can time or inspect the
        solve separately from the aggregation.
        """
        decoded = self._batch_arrays(requests)
        if decoded is not None:
            return self._aggregate_arrays(decoded)
        weights: Dict[NodePair, float] = {}
        for request in requests:
            pair = self.topology.validate_pair(request.src, request.dst)
            saving = (self.topology.pair_length(pair) - 1.0) * request.size
            if saving <= 0:
                continue
            weights[pair] = weights.get(pair, 0.0) + saving
        return weights

    def fit(self, requests: Sequence[Request]) -> None:
        """Aggregate the trace into pair weights and install the best static matching."""
        weights = self.aggregate_demand(requests)

        if self.solver == "blossom":
            requested = self.config.solver_backend
            effective = resolve_solver_backend(requested)
            chosen = iterated_max_weight_b_matching(
                weights, self.topology.n_racks, self.config.b, backend=requested
            )
            self.solver_provenance = {
                "solver_backend": requested or DEFAULT_SOLVER_BACKEND,
                "solver_kernel": effective,
            }
        else:
            chosen = greedy_b_matching(weights, self.topology.n_racks, self.config.b)
            self.solver_provenance = {
                "solver_backend": "greedy",
                "solver_kernel": "greedy",
            }

        # Install the static matching; the one-time setup cost is charged to
        # reconfiguration so that total-cost comparisons remain honest even
        # though the paper's figures plot routing cost only.
        for pair in sorted(chosen):
            self.matching.add(*pair)
        self.total_reconfiguration_cost += len(chosen) * self.config.alpha
        self._fitted = True

    def _aggregate_arrays(self, decoded) -> Dict[NodePair, float]:
        """Vectorised per-pair saving totals, bit-identical to the loop form.

        Counts per pair come from one ``np.unique`` pass; savings are
        ``(ℓ - 1) * count`` with integer hop counts and unit sizes, so the
        products equal the sequential sums exactly.  Pairs are inserted in
        first-occurrence order — the order the request loop would build the
        dict in — because the downstream blossom solver's tie-breaking
        depends on graph insertion order.
        """
        n = self.topology.n_racks
        _lo, _hi, keys, _lengths = decoded
        unique_keys, first_index, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        order = np.argsort(first_index, kind="stable")
        unique_keys = unique_keys[order]
        counts = counts[order]
        u = unique_keys // n
        v = unique_keys % n
        savings = (self._distances[u, v] - 1.0) * counts
        return {
            (int(uu), int(vv)): float(s)
            for uu, vv, s in zip(u.tolist(), v.tolist(), savings.tolist())
            if s > 0
        }

    def _serve_segment(self, lo, hi, keys, lengths) -> None:
        """Batched replay: the matching never changes after :meth:`fit`."""
        self._serve_static(keys, lengths)

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        return (), ()

    def _reset_policy_state(self) -> None:
        self._fitted = False
        self.solver_provenance = None
