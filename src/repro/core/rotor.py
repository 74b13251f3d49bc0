"""Rotor — demand-oblivious rotating matchings (RotorNet/Sirius-style baseline).

The paper's related work contrasts *demand-aware* reconfigurable networks
(ProjecToR, and the b-matching algorithms studied here) with *demand-oblivious*
ones such as RotorNet [Mellette et al., SIGCOMM 2017] and Sirius, whose
optical switches cycle through a fixed schedule of matchings irrespective of
the traffic.  This module provides that baseline so the benchmarks can
quantify how much demand-awareness itself buys: Rotor pays no online
decision-making cost and no "cache misses", but a request is only served over
an optical link when its pair happens to be in the currently installed
matchings.

The schedule is a round-robin edge colouring of the complete graph on the
racks (the classic circle method), so every pair appears in exactly one of
``n-1`` (or ``n`` for odd ``n``) slots; ``b`` consecutive slots are installed
at any time, and the schedule advances by one slot every ``period`` requests.
Reconfiguration cost is charged for the edges swapped at each rotation,
exactly as for the demand-aware algorithms.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import ConfigurationError
from ..topology import Topology
from ..types import NodePair, Request, canonical_pair
from .base import OnlineBMatchingAlgorithm

__all__ = ["RotorBMA", "round_robin_schedule"]


def round_robin_schedule(n_nodes: int) -> List[List[NodePair]]:
    """Round-robin (circle method) decomposition of the complete graph K_n.

    Returns ``n-1`` perfect matchings for even ``n`` (each of size ``n/2``),
    or ``n`` near-perfect matchings for odd ``n`` (each of size ``(n-1)/2``).
    Every unordered pair of nodes appears in exactly one matching.
    """
    if n_nodes < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n_nodes}")
    nodes = list(range(n_nodes))
    dummy = None
    if n_nodes % 2 == 1:
        nodes.append(dummy)
    m = len(nodes)
    rounds: List[List[NodePair]] = []
    fixed = nodes[0]
    rotating = nodes[1:]
    for r in range(m - 1):
        slot: List[NodePair] = []
        ring = [fixed] + rotating[r:] + rotating[:r]
        for i in range(m // 2):
            a, b = ring[i], ring[m - 1 - i]
            if a is dummy or b is dummy:
                continue
            slot.append(canonical_pair(a, b))
        rounds.append(slot)
    return rounds


class RotorBMA(OnlineBMatchingAlgorithm):
    """Demand-oblivious rotating b-matching.

    Parameters
    ----------
    period:
        Number of requests between schedule advances (one slot swapped per
        advance).  Smaller periods emulate faster rotor switches.
    """

    name = "rotor"

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
        period: int = 500,
    ):
        super().__init__(topology, config, rng)
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self.period = int(period)
        self._schedule = round_robin_schedule(topology.n_racks)
        self._cursor = 0
        self._since_rotation = 0
        self._installed_slots: list[int] = []
        self._install_initial()

    # ------------------------------------------------------------------ #
    # Schedule handling
    # ------------------------------------------------------------------ #
    @property
    def n_slots(self) -> int:
        """Number of slots in the rotation schedule."""
        return len(self._schedule)

    @property
    def installed_slots(self) -> Tuple[int, ...]:
        """Indices of the currently installed schedule slots."""
        return tuple(self._installed_slots)

    def _install_initial(self) -> None:
        for offset in range(min(self.config.b, self.n_slots)):
            self._install_slot(offset)
        self._cursor = len(self._installed_slots) % self.n_slots
        # The initial installation models the rotor's pre-existing steady
        # state, not an online decision, so it is not charged as
        # reconfiguration cost.
        self.matching.reset_counters()

    def _install_slot(self, slot: int) -> list[NodePair]:
        added = []
        for pair in self._schedule[slot]:
            if self.matching.has_capacity(*pair):
                self.matching.add(*pair)
                added.append(pair)
        self._installed_slots.append(slot)
        return added

    def _remove_slot(self, slot: int) -> list[NodePair]:
        removed = []
        for pair in self._schedule[slot]:
            if pair in self.matching:
                self.matching.remove(*pair)
                removed.append(pair)
        self._installed_slots.remove(slot)
        return removed

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
        self._since_rotation += 1
        if self._since_rotation < self.period or self.n_slots <= self.config.b:
            return (), ()
        self._since_rotation = 0
        return self._advance_schedule()

    def _advance_schedule(self) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        """Advance: drop the oldest installed slot, install the next slot."""
        removed = self._remove_slot(self._installed_slots[0])
        while self._cursor in self._installed_slots:
            self._cursor = (self._cursor + 1) % self.n_slots
        added = self._install_slot(self._cursor)
        self._cursor = (self._cursor + 1) % self.n_slots
        return tuple(added), tuple(removed)

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Batched replay: the matching changes only at rotation points.

        Rotations fall every ``period`` requests regardless of the traffic,
        so the segment splits into chunks of known size; each rotation logs
        its removals, then its additions, at the request that triggered it.
        """
        n = self.topology.n_racks
        total = len(keys)
        rotates = self.n_slots > self.config.b
        ev_pos: list[int] = []
        ev_key: list[int] = []
        ev_added: list[bool] = []
        start = stop = 0
        try:
            while start < total:
                # The request on which ``_since_rotation`` reaches ``period``
                # is still served against the old matching; the rotation
                # happens right after it, exactly as in :meth:`serve`.
                stop = min(total, start + self.period - self._since_rotation) if rotates else total
                self._since_rotation += stop - start
                start = stop
                if rotates and self._since_rotation >= self.period:
                    self._since_rotation = 0
                    added, removed = self._advance_schedule()
                    for edges, was_added in ((removed, False), (added, True)):
                        for u, v in edges:
                            ev_pos.append(stop - 1)
                            ev_key.append(u * n + v)
                            ev_added.append(was_added)
                    if added or removed:
                        self._check_degree(int(lo[stop - 1]))
        except BaseException as exc:
            return stop - 1, ev_pos, ev_key, ev_added, exc  # the trigger is not served
        return total, ev_pos, ev_key, ev_added, None

    def _reset_policy_state(self) -> None:
        self._cursor = 0
        self._since_rotation = 0
        self._installed_slots = []
        self._install_initial()
