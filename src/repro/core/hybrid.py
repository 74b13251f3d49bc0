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
runs each expert over the whole segment through the base class's replay
step, which returns a :class:`~repro.core.base.SegmentLog` (per-request hits
and costs, and the edge events), and finds the switches from the two logs
with numpy; Python then runs only per switch and per edge event.  Like every
algorithm, the combiner returns only its own edge events, and the base class
prices its requests from them.  Per-request :meth:`HybridBMA.serve` (and so
the reference kernel) remains the ground truth the batched replay must match
bit for bit.
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
        target = set(self._following.matching.edges)
        current = set(self.matching.edges)
        removed = tuple(sorted(current - target))
        added = tuple(sorted(target - current))
        for edge in removed:
            self.matching.remove(*edge)
        for edge in added:
            self.matching.add(*edge)
        return added, removed

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Batched replay: each expert replays the segment on its own batch path.

        The experts never read the combiner's state, so R-BMA and then
        PredictiveBMA replay the whole segment first through their
        :meth:`~repro.core.base.OnlineBMatchingAlgorithm._replay`, each
        returning a :class:`~repro.core.base.SegmentLog`.  Then:

        * each expert's total cost after every request is the sum of two
          left-to-right cumulative sums (routing and reconfiguration, from
          the carried totals), the floats per-request serving compares;
        * the switches are found with one vectorised switch test per expert,
          walked one switch at a time;
        * between switches the real matching applies the followed expert's
          edge events in log order, and at a switch at request ``j`` the
          sorted key-set diff from the old expert's matching after ``j - 1``
          (the real matching) to the new expert's after ``j``.

        Those real-matching changes are the combiner's edge events.  Costs,
        switches, matching state and randomness are those of
        request-by-request :meth:`serve` calls.

        Errors: if the robust expert raises at request ``i``, the predictive
        expert and the combiner serve requests ``0 .. i-1`` and the error
        propagates, as with per-request serving.  If the predictive expert
        raises at request ``i`` (see :meth:`PredictiveBMA._serve_segment`),
        the combiner serves ``0 .. i-1`` and the error propagates, but the
        robust expert has already served the whole segment.
        """
        robust, predictive = self._robust, self._predictive
        other = {robust: predictive, predictive: robust}
        carried = {e: (e.total_routing_cost, e.total_reconfiguration_cost) for e in other}
        n = self.topology.n_racks
        robust_log = robust._replay(lo, hi, keys, lengths)
        served = len(robust_log.hit)
        predictive_log = predictive._replay(
            lo[:served], hi[:served], keys[:served], lengths[:served]
        )
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

        matching = self.matching
        ev_pos: list[int] = []
        ev_key: list[int] = []
        ev_added: list[bool] = []
        done = 0  # requests whose matching changes are applied
        error = robust_log.error or predictive_log.error
        try:
            for switch in [*switches, served]:
                log = logs[self._following]
                a, z = log.ev_pos.searchsorted([done, switch])
                positions = log.ev_pos[a:z].tolist()
                edge_keys = log.ev_key[a:z].tolist()
                flags = log.ev_added[a:z].tolist()
                ev_pos += positions
                ev_key += edge_keys
                ev_added += flags
                for pos, key, added, next_pos in zip(
                    positions, edge_keys, flags, positions[1:] + [-1]
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
                ev_pos += [switch] * (len(removed) + len(added))
                ev_key += removed + added
                ev_added += [False] * len(removed) + [True] * len(added)
                for key in removed:
                    matching.remove(key // n, key % n)
                for key in added:
                    matching.add(key // n, key % n)
                if removed or added:
                    self._check_degree(int(lo[switch]))
                done = switch + 1
        except BaseException as exc:
            error = exc
        return done, ev_pos, ev_key, ev_added, error

    def _reset_policy_state(self) -> None:
        self._make_experts()

    def _on_matching_rebound(self, backend: str) -> None:
        # The experts' virtual matchings drive the real one's contents; keep
        # all three on the same kernel so a backend comparison exercises the
        # whole combiner.  Rebinding consumes no randomness.
        self._robust.rebind_matching_backend(backend)
        self._predictive.rebind_matching_backend(backend)
