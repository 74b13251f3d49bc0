"""Robust prediction-augmented algorithm (consistency/robustness combiner).

The paper's §5 asks for algorithms that "leverage certain predictions about
future demands, without losing the worst-case guarantees".  The standard way
to get both is to *combine* two online algorithms — here the prediction-based
:class:`~repro.core.predictive.PredictiveBMA` and the worst-case-safe
:class:`~repro.core.rbma.RBMA` — and follow whichever has accumulated lower
cost, switching with hysteresis so the switching overhead stays bounded
(the classic "follow the better expert with doubling" argument gives a
constant-factor overhead over the better of the two).

Mechanically, the combiner runs both algorithms in simulation on the same
request stream (each maintains its own virtual matching) and keeps the *real*
installed matching synchronised with the currently followed algorithm's
virtual matching.  Routing cost is paid according to the real matching;
reconfiguration cost is paid for every real edge change, including the bulk
change at a switch.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError, SimulationError
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm
from .predictive import PredictiveBMA
from .rbma import RBMA

__all__ = ["HybridBMA"]


class HybridBMA(OnlineBMatchingAlgorithm):
    """Follow-the-cheaper combination of PredictiveBMA and R-BMA.

    Parameters
    ----------
    switch_factor:
        Hysteresis factor: the combiner switches to the other algorithm only
        when the followed algorithm's virtual cost exceeds the other's by
        this factor (default 2.0, the doubling rule).
    period, window:
        Forwarded to the internal :class:`PredictiveBMA`.
    """

    name = "hybrid"
    uses_rng = True

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        switch_factor: float = 2.0,
        period: int = 1000,
        window: int = 2000,
    ):
        super().__init__(topology, config, rng)
        if switch_factor < 1.0:
            raise ConfigurationError(f"switch_factor must be >= 1, got {switch_factor}")
        self.switch_factor = float(switch_factor)
        self._period = period
        self._window = window
        self._make_experts()

    def _make_experts(self) -> None:
        child_seed = int(self.rng.integers(2**63 - 1))
        self._robust = RBMA(self.topology, self.config, rng=child_seed)
        self._predictive = PredictiveBMA(
            self.topology, self.config, period=self._period, window=self._window
        )
        # Fresh experts start on the default kernel; keep them on the
        # combiner's backend so reset() after a rebind (where the engine's
        # own rebind is a no-op and _on_matching_rebound never fires) does
        # not silently drop the experts back to the fast kernel.
        self._robust.rebind_matching_backend(self._matching_backend)
        self._predictive.rebind_matching_backend(self._matching_backend)
        self._following: OnlineBMatchingAlgorithm = self._robust
        self._switches = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def following(self) -> str:
        """Name of the currently followed expert algorithm."""
        return self._following.name

    @property
    def switches(self) -> int:
        """Number of times the combiner changed which expert it follows."""
        return self._switches

    @property
    def expert_costs(self) -> Tuple[float, float]:
        """Virtual total costs of (robust, predictive) experts."""
        return self._robust.total_cost, self._predictive.total_cost

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #
    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        # Advance both experts on their own virtual matchings.
        self._robust.serve(request)
        self._predictive.serve(request)

        other = self._predictive if self._following is self._robust else self._robust
        if self._following.total_cost > self.switch_factor * max(other.total_cost, 1.0):
            self._following = other
            self._switches += 1

        # Synchronise the real matching with the followed expert's matching.
        # On the fast kernel, diff the int-encoded edge sets directly (sorted
        # int keys order exactly like sorted canonical pairs); otherwise fall
        # back to tuple snapshots.
        target_matching = self._following.matching
        target_keys = getattr(target_matching, "edge_keys", None)
        current_keys = getattr(self.matching, "edge_keys", None)
        if target_keys is not None and current_keys is not None:
            n = self.matching.n_nodes
            removed = tuple((k // n, k % n) for k in sorted(current_keys - target_keys))
            added = tuple((k // n, k % n) for k in sorted(target_keys - current_keys))
        else:
            target = set(target_matching.edges)
            current = set(self.matching.edges)
            removed = tuple(sorted(current - target))
            added = tuple(sorted(target - current))
        for edge in removed:
            self.matching.remove(*edge)
        for edge in added:
            self.matching.add(*edge)
        return added, removed

    def serve_batch(self, requests) -> None:
        """Batch driver: experts advance in one tight loop, synced incrementally.

        The combiner's switch rule compares the experts' cumulative costs
        after *every* request, so the experts cannot be stepped over whole
        segments without changing switch timing; instead the driver runs the
        whole segment in a single loop that skips the combiner's own
        Request/ServeOutcome wrappers and — the actual hot cost of
        :meth:`serve` — replaces the per-request full edge-set diff with an
        incremental sync: while no switch happens, the real matching equals
        the followed expert's virtual matching, so the expert's own
        ``ServeOutcome`` already lists exactly the edges the real matching
        must add and remove.  A full key-set diff runs only on the (rare)
        switch steps.  Costs, randomness, and raised errors are identical to
        request-by-request serving.
        """
        matching = self.matching
        edge_keys = getattr(matching, "edge_keys", None)
        decoded = self._batch_arrays(requests)
        if edge_keys is None or decoded is None:
            super().serve_batch(requests)
            return
        n = self.topology.n_racks
        lo, hi, keys_arr, lengths_arr = decoded
        keys = keys_arr.tolist()
        lengths = lengths_arr.tolist()
        los = lo.tolist()
        his = hi.tolist()

        robust = self._robust
        predictive = self._predictive
        factor = self.switch_factor
        alpha = self.config.alpha
        b = self.config.b
        routing = self.total_routing_cost
        reconf = self.total_reconfiguration_cost
        served = self.requests_served
        matched = self.matched_requests
        try:
            for key, u, v, length in zip(keys, los, his, lengths):
                hit = key in edge_keys
                request = Request(u, v)
                robust_outcome = robust.serve(request)
                predictive_outcome = predictive.serve(request)

                following = self._following
                other = predictive if following is robust else robust
                before = matching.additions + matching.removals
                if following.total_cost > factor * max(other.total_cost, 1.0):
                    self._following = other
                    self._switches += 1
                    # Full edge-set diff on switch steps (sorted int keys
                    # order exactly like sorted canonical pairs).
                    target_keys = getattr(other.matching, "edge_keys", None)
                    if target_keys is None:
                        target_keys = {a * n + c for a, c in other.matching.edges}
                    for k in sorted(edge_keys - target_keys):
                        matching.remove(k // n, k % n)
                    for k in sorted(target_keys - edge_keys):
                        matching.add(k // n, k % n)
                else:
                    outcome = (
                        robust_outcome if following is robust else predictive_outcome
                    )
                    for edge in outcome.edges_removed:
                        matching.remove(*edge)
                    for edge in outcome.edges_added:
                        matching.add(*edge)
                n_changes = matching.additions + matching.removals - before
                if n_changes and matching.degree(u) > b:
                    raise SimulationError(
                        f"{self.name}: degree bound violated at node {u}"
                    )
                routing += 1.0 if hit else length
                if n_changes:
                    reconf += n_changes * alpha
                served += 1
                if hit:
                    matched += 1
        finally:
            self.total_routing_cost = routing
            self.total_reconfiguration_cost = reconf
            self.requests_served = served
            self.matched_requests = matched

    def _reset_policy_state(self) -> None:
        self._make_experts()

    def _on_matching_rebound(self, backend: str) -> None:
        # The experts' virtual matchings drive the real one's contents; keep
        # all three on the same kernel so a backend comparison exercises the
        # whole combiner.  Rebinding consumes no randomness.
        self._robust.rebind_matching_backend(backend)
        self._predictive.rebind_matching_backend(backend)
