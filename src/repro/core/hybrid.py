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

The experts never read the combiner's state.  A batched replay therefore
runs each expert over the whole segment on its own batch path, which returns
a :class:`~repro.core.base.SegmentLog` (per-request hits and costs, and the
edge events), and computes the combiner's segment from the two logs with
numpy; Python then runs only per switch and per edge event.  Per-request
:meth:`HybridBMA.serve` (and so the reference kernel) remains the ground
truth the batched replay must match bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm, running_total, sorted_edge_keys
from .predictive import PredictiveBMA
from .rbma import RBMA
from .uniform import pair_order

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
        # Drawn once: reset() rebuilds the robust expert on the same seed.
        self._robust_seed = int(self.rng.integers(2**63 - 1))
        self._make_experts()

    def _make_experts(self) -> None:
        self._robust = RBMA(self.topology, self.config, rng=self._robust_seed)
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
        """Batched replay: each expert serves the segment on its own batch path.

        The experts never read the combiner's state, so R-BMA and then
        PredictiveBMA replay the whole segment first, each returning a
        :class:`~repro.core.base.SegmentLog`.  The combiner's segment is then
        read off the two logs:

        * each expert's total cost after every request is the sum of two
          left-to-right cumulative sums (routing and reconfiguration, from
          the carried totals), the floats per-request serving compares;
        * the switches are found with one vectorised switch test per expert,
          walked one switch at a time;
        * between switches the real matching applies the followed expert's
          edge events in log order, and at a switch at request ``j`` the
          sorted key-set diff from the old expert's matching after ``j - 1``
          (the real matching) to the new expert's after ``j``;
        * each request's hit and routing cost are those of the expert
          followed when it arrived.

        Costs, switches, matching state and randomness are those of
        request-by-request :meth:`serve` calls.  Input other than a
        :class:`~repro.traffic.base.Trace`, and the reference kernel, are
        served that way.

        Errors: if the robust expert raises at request ``i``, the predictive
        expert and the combiner serve requests ``0 .. i-1`` and the error
        propagates, as with per-request serving.  If the predictive expert
        raises at request ``i`` (see :meth:`PredictiveBMA._serve_segment`),
        the combiner serves ``0 .. i-1`` and the error propagates, but the
        robust expert has already served the whole segment.
        """
        decoded = self._batch_arrays(requests)
        if decoded is None or getattr(self.matching, "edge_keys", None) is None:
            super().serve_batch(requests)
            return
        lo, _hi, keys, lengths = decoded
        if not len(keys):
            return
        robust, predictive = self._robust, self._predictive
        other = {robust: predictive, predictive: robust}
        carried = {e: (e.total_routing_cost, e.total_reconfiguration_cost) for e in other}
        n = self.topology.n_racks
        robust_log = robust._serve_segment(keys, lengths, pair_order(keys, n))
        served = len(robust_log.hit)
        predictive_log = predictive._serve_segment(keys[:served], lengths[:served])
        served = len(predictive_log.hit)
        logs = {robust: robust_log, predictive: predictive_log}
        totals = {
            e: running_total(carried[e][0], logs[e].routing[:served])
            + running_total(carried[e][1], logs[e].reconf[:served])
            for e in other
        }
        factor = self.switch_factor
        leaving = {
            e: np.flatnonzero(totals[e] > factor * np.maximum(totals[other[e]], 1.0))
            for e in other
        }
        switches = []
        following = self._following
        while True:
            candidates = leaving[following]
            k = candidates.searchsorted(switches[-1] + 1 if switches else 0)
            if k == len(candidates):
                break
            switches.append(int(candidates[k]))
            following = other[following]
        # The expert followed when each request arrived.
        on_robust = (np.searchsorted(switches, np.arange(served)) % 2 == 0) == (
            self._following is robust
        )
        reconf = np.where(on_robust, robust_log.reconf[:served],
                          predictive_log.reconf[:served])

        matching = self.matching
        done = 0  # requests whose matching changes are applied
        error = None
        try:
            for switch in [*switches, served]:
                log = logs[self._following]
                a, z = log.ev_pos.searchsorted([done, switch])
                positions = log.ev_pos[a:z].tolist()
                for pos, key, added, next_pos in zip(
                    positions, log.ev_key[a:z].tolist(), log.ev_added[a:z].tolist(),
                    positions[1:] + [-1],
                ):
                    done = pos
                    if added:
                        matching.add(key // n, key % n)
                    else:
                        matching.remove(key // n, key % n)
                    if next_pos != pos:  # the request's last change
                        self._check_degree(int(lo[pos]))
                done = switch
                if switch == served:
                    break
                self._following = other[self._following]
                self._switches += 1
                current = sorted_edge_keys(matching)  # the old expert's after switch - 1
                target = logs[self._following].edges_after(switch)
                removed = np.setdiff1d(current, target, assume_unique=True).tolist()
                added = np.setdiff1d(target, current, assume_unique=True).tolist()
                for key in removed:
                    matching.remove(key // n, key % n)
                for key in added:
                    matching.add(key // n, key % n)
                reconf[switch] = (len(removed) + len(added)) * self.config.alpha
                if removed or added:
                    self._check_degree(int(lo[switch]))
                done = switch + 1
        except BaseException as exc:
            error = exc
        hit = np.where(on_robust[:done], robust_log.hit[:done], predictive_log.hit[:done])
        routing = np.where(on_robust[:done], robust_log.routing[:done],
                           predictive_log.routing[:done])
        if done:
            self.total_routing_cost = float(running_total(self.total_routing_cost, routing)[-1])
            self.total_reconfiguration_cost = float(
                running_total(self.total_reconfiguration_cost, reconf[:done])[-1]
            )
        self.requests_served += done
        self.matched_requests += int(np.count_nonzero(hit))
        error = error or robust_log.error or predictive_log.error
        if error is not None:
            raise error

    def _reset_policy_state(self) -> None:
        self._make_experts()

    def _on_matching_rebound(self, backend: str) -> None:
        # The experts' virtual matchings drive the real one's contents; keep
        # all three on the same kernel so a backend comparison exercises the
        # whole combiner.  Rebinding consumes no randomness.
        self._robust.rebind_matching_backend(backend)
        self._predictive.rebind_matching_backend(backend)
