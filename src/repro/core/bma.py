"""BMA — deterministic online b-matching baseline.

Reimplementation of the deterministic, asymptotically optimal
``O(b)``-competitive online b-matching algorithm of Bienkowski, Fuchssteiner,
Marcinkowski and Schmid ("Online dynamic b-matching with applications to
reconfigurable datacenter networks", PERFORMANCE 2020), which the paper we
reproduce uses as its main empirical baseline.

Algorithm (per request to pair ``e = {u, v}``):

1. If ``e`` is matched, serve it at cost 1 and increase its *usefulness* (the
   number of requests it has served since being added).
2. Otherwise pay ``ℓ_e`` and add ``ℓ_e`` to the pair's counter ``C_e``.  When
   ``C_e ≥ α`` the pair *saturates*: it is inserted into the matching.  For
   every endpoint already at its degree bound, the incident matched edge with
   the smallest usefulness (ties: oldest) is evicted and the counters of all
   pending pairs incident to that endpoint are reset to zero — the standard
   amortisation behind the ``O(b)`` guarantee.

Implementation note (relevant to the paper's execution-time figures): the
original artifact keeps all of BMA's bookkeeping — per-pair counters,
usefulness, and the matching itself — as edge attributes of a NetworkX demand
graph ("We implemented all algorithms in Python leveraging the NetworkX
library").  We keep the same structure without the library: the demand graph
is the dict-of-dicts an ``nx.Graph`` keeps as its adjacency (``{node:
{neighbour: edge data}}``, one data dict shared by both directions), and
every decision walks the adjacency of the affected endpoints in insertion
order.  This is what makes BMA noticeably slower than R-BMA (whose per-node
caches are plain Python sets) and more sensitive to the cache size ``b``,
reproducing the runtime comparison in the paper.  The algorithmic decisions
themselves are independent of this storage choice.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import MatchingConfig
from ..topology import Topology
from ..types import NodePair, Request
from .base import OnlineBMatchingAlgorithm

__all__ = ["BMA"]


class BMA(OnlineBMatchingAlgorithm):
    """Deterministic counter-based online b-matching (the paper's baseline)."""

    name = "bma"

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
    ):
        super().__init__(topology, config, rng)
        # Demand graph holding BMA's bookkeeping as edge data, mirroring the
        # original implementation (see module docstring).
        self._demand: dict[int, dict[int, dict]] = {u: {} for u in range(topology.n_racks)}
        self._insertion_clock = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counter(self, pair: NodePair) -> float:
        """Accumulated fixed-network cost of ``pair`` since its last reset."""
        u, v = self.topology.validate_pair(*pair)
        data = self._demand[u].get(v)
        return float(data["counter"]) if data else 0.0

    def usefulness(self, pair: NodePair) -> int:
        """Requests served by matched edge ``pair`` since it was added."""
        u, v = self.topology.validate_pair(*pair)
        data = self._demand[u].get(v)
        return int(data["usefulness"]) if data else 0

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
        u, v = pair
        demand = self._demand
        if served_by_matching:
            demand[u][v]["usefulness"] += 1
            return (), ()

        data = demand[u].get(v)
        if data is not None:
            data["counter"] += length * request.size
        else:
            data = {
                "counter": length * request.size, "usefulness": 0, "matched": False, "inserted": 0
            }
            demand[u][v] = demand[v][u] = data
        if data["counter"] < self.config.alpha:
            return (), ()
        return self._saturate(pair, data)

    def _saturate(self, pair: NodePair, data: dict) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        """Bring a saturated pair into the matching, evicting where needed."""
        added: list[NodePair] = []
        removed: list[NodePair] = []
        adj = self._demand
        for endpoint in pair:
            if self.matching.degree(endpoint) >= self.config.b:
                victim = self._select_victim(endpoint)
                self.matching.remove(*victim)
                vd = adj[victim[0]][victim[1]]
                vd["matched"] = False
                vd["usefulness"] = 0
                removed.append(victim)
                self._reset_incident_counters(endpoint)
        self.matching.add(*pair)
        self._insertion_clock += 1
        data["matched"] = True
        data["usefulness"] = 0
        data["counter"] = 0.0
        data["inserted"] = self._insertion_clock
        added.append(pair)
        return tuple(added), tuple(removed)

    def _serve_segment(self, lo, hi, keys, lengths) -> None:
        """Batched replay: the same demand-graph bookkeeping, inlined.

        Operates on the *same* demand graph as :meth:`serve`, so eviction
        scans and counter resets see identical state in identical order;
        only the per-request wrapper objects (Request, ServeOutcome) are
        skipped.
        """
        matching = self.matching
        edge_keys = matching.edge_keys
        adj = self._demand
        saturate = self._saturate
        alpha = self.config.alpha
        routing = self.total_routing_cost
        reconf = self.total_reconfiguration_cost
        served = self.requests_served
        matched = self.matched_requests
        try:
            for key, u, v, length in zip(
                keys.tolist(), lo.tolist(), hi.tolist(), lengths.tolist()
            ):
                if key in edge_keys:
                    adj[u][v]["usefulness"] += 1
                    routing += 1.0
                    served += 1
                    matched += 1
                    continue
                row = adj[u]
                data = row.get(v)
                if data is None:
                    data = {"counter": length, "usefulness": 0, "matched": False, "inserted": 0}
                    row[v] = data
                    adj[v][u] = data
                else:
                    data["counter"] += length
                if data["counter"] < alpha:
                    routing += length
                    served += 1
                    continue
                before = matching.additions + matching.removals
                saturate((u, v), data)
                n_changes = matching.additions + matching.removals - before
                if n_changes:
                    self._check_degree(u)
                routing += length
                reconf += n_changes * alpha
                served += 1
        finally:
            self.total_routing_cost = routing
            self.total_reconfiguration_cost = reconf
            self.requests_served = served
            self.matched_requests = matched

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _select_victim(self, endpoint: int) -> NodePair:
        """Matched edge at ``endpoint`` with least usefulness (ties: oldest).

        Walks the demand-graph adjacency of the endpoint, as the original
        implementation does, filtering for matched edges.
        """
        best: NodePair | None = None
        best_key: tuple[int, int] | None = None
        for neighbor, data in self._demand[endpoint].items():
            if not data.get("matched"):
                continue
            key = (data["usefulness"], data["inserted"])
            if best_key is None or key < best_key:
                best_key = key
                best = (endpoint, neighbor) if endpoint < neighbor else (neighbor, endpoint)
        assert best is not None, "degree bound reached with no matched incident edge"
        return best

    def _reset_incident_counters(self, endpoint: int) -> None:
        """Zero the counters of every pending pair incident to ``endpoint``."""
        for _neighbor, data in self._demand[endpoint].items():
            if not data.get("matched"):
                data["counter"] = 0.0

    def _reset_policy_state(self) -> None:
        self._demand = {u: {} for u in range(self.topology.n_racks)}
        self._insertion_clock = 0
