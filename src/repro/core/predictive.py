"""Prediction-augmented online b-matching (the paper's §5 future-work direction).

The paper closes by noting that real traffic has temporal structure and that
algorithms leveraging *predictions* of future demand are an interesting
extension.  :class:`PredictiveBMA` implements the natural candidate: a
sliding-window frequency predictor estimates per-pair demand, and every
``period`` requests the algorithm reconfigures towards the greedy
maximum-saving b-matching of the predicted demand.  Between reconfiguration
points it behaves obliviously (routing over whatever matching is installed).

This is *not* part of the paper's evaluation; it exists so the ablation
benchmarks can quantify how much headroom predictions offer over the purely
online R-BMA on traces with strong temporal structure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError
from ..matching import greedy_b_matching
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

__all__ = ["SlidingWindowPredictor", "PredictiveBMA"]


def pair_sums(lo: np.ndarray, hi: np.ndarray, savings: np.ndarray) -> Dict[NodePair, float]:
    """Per-pair sums of ``savings`` over the pairs ``(lo[i], hi[i])``, in pair order.

    Each pair's savings are added left to right.  Integral savings (the
    batched path's ``max(ℓ - 1, 0)`` of hop counts) sum exactly, so a window
    gives the same floats however it was assembled.
    """
    if not len(lo):
        return {}
    n = int(max(lo.max(), hi.max())) + 1
    pairs, inverse = np.unique(lo * n + hi, return_inverse=True)
    sums = np.bincount(inverse, weights=savings, minlength=len(pairs))
    return dict(zip(zip((pairs // n).tolist(), (pairs % n).tolist()), sums.tolist()))


class SlidingWindowPredictor:
    """Predicts per-pair demand as the (length-weighted) frequency in a sliding window."""

    def __init__(self, window: int = 2000):
        if window < 1:
            raise ConfigurationError(f"predictor window must be >= 1, got {window}")
        self.window = int(window)
        # The last ``window`` observations, oldest first, one deque per field.
        self._lo: Deque[int] = deque(maxlen=self.window)
        self._hi: Deque[int] = deque(maxlen=self.window)
        self._savings: Deque[float] = deque(maxlen=self.window)

    def observe(self, pair: NodePair, saving: float) -> None:
        """Record one request with its potential routing-cost saving."""
        self._lo.append(pair[0])
        self._hi.append(pair[1])
        self._savings.append(saving)

    def extend(self, lo: np.ndarray, hi: np.ndarray, savings: np.ndarray) -> None:
        """Record many requests at once, as :meth:`observe` would in order."""
        tail = slice(-self.window, None)
        self._lo.extend(lo[tail].tolist())
        self._hi.extend(hi[tail].tolist())
        self._savings.extend(savings[tail].tolist())

    def window_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window's ``(lo, hi, savings)`` arrays, oldest observation first."""
        size = len(self._lo)
        return (
            np.fromiter(self._lo, np.int64, size),
            np.fromiter(self._hi, np.int64, size),
            np.fromiter(self._savings, np.float64, size),
        )

    def predicted_weights(self) -> Dict[NodePair, float]:
        """Current window demand estimate: the window's per-pair saving sums."""
        return pair_sums(*self.window_arrays())

    def reset(self) -> None:
        """Clear the window."""
        self._lo.clear()
        self._hi.clear()
        self._savings.clear()


class PredictiveBMA(OnlineBMatchingAlgorithm):
    """Periodically reconfigures to the predicted-best static b-matching.

    Parameters
    ----------
    period:
        Number of requests between reconfiguration points.
    window:
        Size of the sliding window feeding the predictor.
    """

    name = "predictive"

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        period: int = 1000,
        window: int = 2000,
    ):
        super().__init__(topology, config, rng)
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self.period = int(period)
        self.predictor = SlidingWindowPredictor(window)
        self._since_reconfig = 0

    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        self.predictor.observe(pair, max(length - 1.0, 0.0) * request.size)
        self._since_reconfig += 1
        if self._since_reconfig < self.period:
            return (), ()
        self._since_reconfig = 0
        n = self.topology.n_racks
        added, removed = self._install_predicted_matching(self.predictor.predicted_weights())
        return tuple((k // n, k % n) for k in added), tuple((k // n, k % n) for k in removed)

    def _install_predicted_matching(
        self, weights: Dict[NodePair, float]
    ) -> tuple[list[int], list[int]]:
        """Install the greedy matching of ``weights``; the sorted int keys added and removed.

        ``weights`` is the predictor's window demand at the trigger.  Sorted
        int keys ``u * n + v`` order exactly like sorted canonical
        pairs: the removals, then the additions, are applied in pair order.
        """
        n = self.topology.n_racks
        target = {u * n + v for u, v in greedy_b_matching(weights, n, self.config.b)}
        current = getattr(self.matching, "edge_keys", None)
        if current is None:
            current = {u * n + v for u, v in self.matching.edges}
        removed = sorted(current - target)
        added = sorted(target - current)
        for key in removed:
            self.matching.remove(key // n, key % n)
        for key in added:
            self.matching.add(key // n, key % n)
        return added, removed

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Run the installs over one decoded segment, then feed the predictor.

        The savings are vectorised (``max(ℓ - 1, 0)``).  At each install
        point the predictor's window is the carried window plus the segment
        up to the trigger, cut to the last ``window`` requests; its per-pair
        sums (:func:`pair_sums`) are what per-request serving's window
        would give.  The request on which ``_since_reconfig`` reaches
        ``period`` is still routed over the old matching; the install
        follows it, and logs its sorted removals, then its sorted additions,
        at that request.

        If an install raises (only the degree-bound check can, which a valid
        :func:`~repro.matching.greedy_b_matching` never trips), the state is
        that of per-request serving: the requests before the trigger are
        served, the predictor has seen the trigger, and the matching holds
        whatever the install changed.
        """
        predictor = self.predictor
        savings = np.maximum(lengths - 1.0, 0.0)
        carried_lo, carried_hi, carried_savings = predictor.window_arrays()
        carried = len(carried_lo)
        window_lo = np.concatenate([carried_lo, lo])
        window_hi = np.concatenate([carried_hi, hi])
        window_savings = np.concatenate([carried_savings, savings])
        ev_pos: list[int] = []
        ev_key: list[int] = []
        ev_added: list[bool] = []
        seen, error = len(keys), None
        for trigger in range(self.period - self._since_reconfig - 1, len(keys), self.period):
            stop = carried + trigger + 1
            window = slice(max(0, stop - predictor.window), stop)
            weights = pair_sums(window_lo[window], window_hi[window], window_savings[window])
            try:
                added, removed = self._install_predicted_matching(weights)
                ev_pos += [trigger] * (len(removed) + len(added))
                ev_key += removed + added
                ev_added += [False] * len(removed) + [True] * len(added)
                if added or removed:
                    self._check_degree(int(lo[trigger]))
            except BaseException as exc:
                seen, error = trigger + 1, exc  # the trigger is not served
                break
        predictor.extend(lo[:seen], hi[:seen], savings[:seen])
        self._since_reconfig = (self._since_reconfig + seen) % self.period
        return (seen if error is None else seen - 1), ev_pos, ev_key, ev_added, error

    def _reset_policy_state(self) -> None:
        self.predictor.reset()
        self._since_reconfig = 0
