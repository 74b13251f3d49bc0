"""Common interface of online b-matching algorithms.

Every algorithm sees requests one at a time (:meth:`OnlineBMatchingAlgorithm.serve`)
and maintains a dynamic b-matching over the racks of a fixed topology.  The
cost model is the paper's:

* serving a request ``{s, t}`` costs 1 if the pair is a matching edge and
  ``ℓ_{s,t}`` (the fixed-network shortest path length) otherwise;
* every matching edge added or removed costs ``α``.

Cost accounting is centralised here: subclasses only implement the
reconfiguration policy (:meth:`OnlineBMatchingAlgorithm._reconfigure`), and
the base class derives reconfiguration cost from the matching's
addition/removal counters so that no policy can misreport its own cost.

Batched replay keeps one ledger as well.
:meth:`OnlineBMatchingAlgorithm.serve_batch` alone decides how a segment is
served: request by request through ``serve``, or, for a fast-kernel
:class:`~repro.traffic.base.Trace` segment of at least ``min_segment``
requests, through :meth:`OnlineBMatchingAlgorithm._replay`.  There a
subclass's :meth:`OnlineBMatchingAlgorithm._serve_segment` only runs the
policy and logs the matching edges it adds and removes; the base class reads
every request's hit, routing and reconfiguration cost off that log and the
matching at segment start, and commits the totals.  No policy prices its
own requests, on either path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import MatchingConfig
from ..errors import SimulationError
from ..matching import DEFAULT_MATCHING_BACKEND, convert_matching, make_matching
from ..topology import Topology
from ..traffic.base import Trace
from ..types import NodePair, Request
from .rng import CounterRNG

__all__ = ["ServeOutcome", "SegmentLog", "OnlineBMatchingAlgorithm"]

#: The ``min_segment`` of every algorithm: shorter segments are served request
#: by request, because below it the fixed numpy cost of
#: :meth:`OnlineBMatchingAlgorithm._replay` outweighs the per-request Python
#: it saves (measured with ``benchmarks/bench_segments.py``).
_MIN_EVENT_SEGMENT = 16


@dataclass(frozen=True, slots=True)
class ServeOutcome:
    """What happened while serving a single request.

    Attributes
    ----------
    pair:
        The canonical node pair of the request.
    routing_cost:
        Cost paid to route this request (1 or ``ℓ_e``), scaled by the
        request size.
    reconfiguration_cost:
        ``α`` times the number of matching edges added or removed while
        serving this request.
    served_by_matching:
        Whether the request was routed over a matching edge.
    edges_added, edges_removed:
        The matching edges added / removed during this step.
    """

    pair: NodePair
    routing_cost: float
    reconfiguration_cost: float
    served_by_matching: bool
    edges_added: Tuple[NodePair, ...] = ()
    edges_removed: Tuple[NodePair, ...] = ()

    @property
    def total_cost(self) -> float:
        """Routing plus reconfiguration cost of this step."""
        return self.routing_cost + self.reconfiguration_cost


@dataclass(slots=True)
class SegmentLog:
    """What a batched replay did to one segment, request by request.

    :meth:`OnlineBMatchingAlgorithm._replay` builds it.  The arrays cover
    the requests the replay committed, the whole segment unless ``error`` is
    set.  Positions are request indices in the segment.

    Attributes
    ----------
    initial:
        The sorted int edge keys of the matching at segment start.
    hit, routing, reconf:
        Per request: served over a matching edge, its routing cost, and its
        reconfiguration cost.
    ev_pos, ev_key, ev_added:
        The matching's edge events in the order they were applied: the
        request that caused each, the edge's int key, and whether the edge
        was added (else removed).  An event takes effect after its request.
    error:
        The exception that stopped the replay at request ``len(hit)``, or
        ``None``.  The replay committed the requests before it; the caller
        re-raises it.
    """

    initial: np.ndarray
    hit: np.ndarray
    routing: np.ndarray
    reconf: np.ndarray
    ev_pos: np.ndarray
    ev_key: np.ndarray
    ev_added: np.ndarray
    error: Optional[BaseException] = None

    def edges_after(self, pos: int) -> np.ndarray:
        """The sorted int edge keys of the matching after request ``pos``."""
        cut = int(self.ev_pos.searchsorted(pos, side="right"))
        # Each key's last event up to the cut decides whether it is matched.
        keys, last = np.unique(self.ev_key[:cut][::-1], return_index=True)
        added = self.ev_added[:cut][::-1][last]
        kept = np.setdiff1d(self.initial, keys, assume_unique=True)
        return np.union1d(kept, keys[added])


def sorted_edge_keys(matching) -> np.ndarray:
    """The sorted int edge keys of a fast-kernel matching."""
    edge_keys = matching.edge_keys
    keys = np.fromiter(edge_keys, np.int64, len(edge_keys))
    keys.sort()
    return keys


def pair_order(keys: np.ndarray, n_racks: int) -> np.ndarray:
    """The stable argsort of int pair keys (a radix sort when they fit in 16 bits)."""
    sortable = keys.astype(np.uint16) if n_racks * n_racks <= 1 << 16 else keys
    return sortable.argsort(kind="stable")


def running_total(carried: float, costs: np.ndarray) -> np.ndarray:
    """The running total after each of ``costs``, starting from ``carried``.

    A left-to-right cumulative sum adds in the order per-request serving
    does, so every entry is the float the serving loop would hold.
    """
    costs = costs.astype(np.float64)  # a copy, so the caller's costs stay
    if len(costs):
        costs[0] += carried
    return costs.cumsum()


class OnlineBMatchingAlgorithm(ABC):
    """Base class for online (b, a)-matching algorithms.

    Parameters
    ----------
    topology:
        The fixed network providing distances ``ℓ_e``.
    config:
        The matching problem parameters (``b``, ``α``, optionally ``a``).
    rng:
        Seed or generator for the algorithm's internal randomness.
        Deterministic algorithms ignore it.  Randomized algorithms draw
        from a stateless :class:`~repro.core.rng.CounterRNG`
        (:attr:`counter_rng`): an integer seed keys it directly and a passed
        generator contributes one draw that pins its key.
    """

    #: Short machine-readable algorithm name; overridden by subclasses.
    name: str = "abstract"

    #: Whether the algorithm must see the whole trace before serving
    #: (true only for offline baselines such as SO-BMA).
    requires_full_trace: bool = False

    #: Whether the policy consumes randomness (R-BMA's marking pager, the
    #: uniform/hybrid paging layers).  Only these algorithms build a
    #: :attr:`counter_rng`.
    uses_rng: bool = False

    #: Trace segments shorter than this are served request by request by
    #: :meth:`serve_batch` instead of :meth:`_replay`.
    min_segment: int = _MIN_EVENT_SEGMENT

    def __init__(
        self,
        topology: Topology,
        config: MatchingConfig,
        rng: Optional[np.random.Generator | int] = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        # Randomized policies draw from a stateless CounterRNG keyed by the
        # seed, so replay needs no generator state at chunk boundaries.
        self.counter_rng: Optional[CounterRNG] = None
        if self.uses_rng:
            if isinstance(rng, (int, np.integer)):
                root_seed: Optional[int] = int(rng)
            elif isinstance(rng, np.random.Generator):
                # One draw pins the counter key to the generator's state, so
                # generator-constructed algorithms stay deterministic too.
                root_seed = int(rng.integers(2**63 - 1))
            else:
                root_seed = None  # fresh entropy, like default_rng(None)
            self.counter_rng = CounterRNG(root_seed)
        self._matching_backend = DEFAULT_MATCHING_BACKEND
        self.matching = make_matching(topology.n_racks, config.b, self._matching_backend)
        # The topology computes all-pairs distances once; every algorithm
        # shares that dense matrix instead of issuing per-request pairwise
        # lookups through the (validating) Topology.distance API.
        self._distances = topology.distance_matrix
        self.total_routing_cost = 0.0
        self.total_reconfiguration_cost = 0.0
        self.requests_served = 0
        self.matched_requests = 0

    # ------------------------------------------------------------------ #
    # Cost accessors
    # ------------------------------------------------------------------ #
    @property
    def total_cost(self) -> float:
        """Total routing plus reconfiguration cost so far."""
        return self.total_routing_cost + self.total_reconfiguration_cost

    @property
    def matched_fraction(self) -> float:
        """Fraction of requests served over a matching edge so far."""
        if self.requests_served == 0:
            return 0.0
        return self.matched_requests / self.requests_served

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def fit(self, requests: Sequence[Request]) -> None:
        """Give offline algorithms the full trace before the run.

        Online algorithms ignore this; offline baselines override it.  The
        engine calls it only when :attr:`requires_full_trace` is true.
        """

    def reset(self) -> None:
        """Discard all state so the same instance can serve a fresh trace."""
        self.matching = make_matching(
            self.topology.n_racks, self.config.b, self._matching_backend
        )
        self.total_routing_cost = 0.0
        self.total_reconfiguration_cost = 0.0
        self.requests_served = 0
        self.matched_requests = 0
        self._reset_policy_state()

    def _reset_policy_state(self) -> None:
        """Hook for subclasses to clear their own bookkeeping on reset."""

    # ------------------------------------------------------------------ #
    # Matching backend
    # ------------------------------------------------------------------ #
    @property
    def matching_backend(self) -> str:
        """Name of the kernel backend the matching currently runs on."""
        return self._matching_backend

    def rebind_matching_backend(self, backend: Optional[str]) -> None:
        """Move the (not yet served) matching onto a different kernel backend.

        The swap preserves edges, marks, and counters exactly and consumes no
        randomness, so a rebound algorithm produces bit-identical results to
        one that started on the requested backend.  Policies holding direct
        references to the matching fix them up in
        :meth:`_on_matching_rebound`.
        """
        if backend is None or backend == self._matching_backend:
            return
        if self.requests_served:
            raise SimulationError(
                "cannot switch the matching backend after requests were served; "
                "call reset() or use a fresh instance"
            )
        self.matching = convert_matching(self.matching, backend)
        self._matching_backend = backend
        self._on_matching_rebound(backend)

    def _on_matching_rebound(self, backend: str) -> None:
        """Hook: re-point any policy-held references at :attr:`matching`."""

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, request: Request) -> ServeOutcome:
        """Serve one request: pay its routing cost, then (maybe) reconfigure."""
        pair = self.topology.validate_pair(request.src, request.dst)
        length = float(self._distances[pair[0], pair[1]])

        served_by_matching = pair in self.matching
        routing_cost = (1.0 if served_by_matching else length) * request.size

        additions_before = self.matching.additions
        removals_before = self.matching.removals
        added, removed = self._reconfigure(pair, length, served_by_matching, request)

        n_changes = (
            (self.matching.additions - additions_before)
            + (self.matching.removals - removals_before)
        )
        reconfiguration_cost = n_changes * self.config.alpha
        if n_changes:
            self._check_degree(pair[0])

        self.total_routing_cost += routing_cost
        self.total_reconfiguration_cost += reconfiguration_cost
        self.requests_served += 1
        if served_by_matching:
            self.matched_requests += 1
        return ServeOutcome(
            pair=pair,
            routing_cost=routing_cost,
            reconfiguration_cost=reconfiguration_cost,
            served_by_matching=served_by_matching,
            edges_added=added,
            edges_removed=removed,
        )

    def _check_degree(self, node: int) -> None:
        """Raise if a reconfiguration left ``node`` above the degree bound."""
        if self.matching.degree(node) > self.config.b:
            raise SimulationError(f"{self.name}: degree bound violated at node {node}")

    def _batch_arrays(self, requests):
        """Decode a segment into ``(lo, hi, keys, lengths)`` arrays, or ``None``.

        ``lo``/``hi`` are the canonicalised endpoints, ``keys`` the
        int-encoded pairs ``lo * n_racks + hi``, ``lengths`` the fixed-network
        distances.  Returns ``None`` — serve the segment request by request —
        when ``requests`` is not a :class:`Trace`, is shorter than
        :attr:`min_segment`, addresses racks beyond this topology, or the
        matching is not the fast kernel (whose int edge keys the batched
        replays read).  The per-request loop reproduces the exact error
        semantics of :meth:`serve`.
        """
        if (
            not isinstance(requests, Trace)
            or len(requests) < self.min_segment
            or requests.n_nodes > self.topology.n_racks
            or getattr(self.matching, "edge_keys", None) is None
        ):
            return None
        src = requests.sources.astype(np.int64, copy=False)
        dst = requests.destinations.astype(np.int64, copy=False)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = lo * self.topology.n_racks + hi
        return lo, hi, keys, self._distances[lo, hi]

    def serve_batch(self, requests) -> None:
        """Serve a contiguous batch of requests (no per-request outcomes).

        ``requests`` is any iterable of :class:`~repro.types.Request`,
        including a :class:`~repro.traffic.base.Trace` slice.  This is the
        one place that picks the replay path: a segment :meth:`_batch_arrays`
        decodes (a fast-kernel Trace in range, of at least :attr:`min_segment`
        requests) goes to :meth:`_replay`; anything else is a loop over
        :meth:`serve`.  Both paths give the same costs, randomness and raised
        errors.
        """
        decoded = self._batch_arrays(requests)
        if decoded is None:
            for request in requests:
                self.serve(request)
            return
        log = self._replay(*decoded)
        if log.error is not None:
            raise log.error

    def _replay(
        self, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray, lengths: np.ndarray
    ) -> SegmentLog:
        """Serve one decoded segment through :meth:`_serve_segment` and price it.

        The arrays are those :meth:`_batch_arrays` returns.  The policy runs
        and logs its edge events; then, for the requests it committed, each
        request's hit is read from the matching at segment start and the
        last event of its pair before it, its routing cost is 1 or ``ℓ_e``,
        and its reconfiguration cost is ``α`` times its events.  The totals
        advance by left-to-right cumulative sums from the carried ones, the
        float order of per-request serving.  Returns the segment's
        :class:`SegmentLog`, whose ``error`` the caller raises.
        """
        initial = sorted_edge_keys(self.matching)  # edges at segment start
        stop, ev_pos, ev_key, ev_added, error = self._serve_segment(lo, hi, keys, lengths)
        positions = np.asarray(ev_pos, dtype=np.int64)
        cut = int(positions.searchsorted(stop))  # the committed requests' events
        positions = positions[:cut]
        ev_keys = np.asarray(ev_key, dtype=np.int64)[:cut]
        added_mask = np.asarray(ev_added, dtype=bool)[:cut]
        keys = keys[:stop]
        # Hits are looked up in pair order (sorted queries search fastest) and
        # scattered back to request order.
        order = pair_order(keys, self.topology.n_racks)
        ranked = keys[order]
        if len(initial):
            hit = initial.take(initial.searchsorted(ranked), mode="clip") == ranked
        else:
            hit = np.zeros(stop, dtype=bool)
        reconf = np.zeros(stop)
        if cut:
            reconf = np.bincount(positions, minlength=stop) * self.config.alpha
            # Sort the log by (pair, position); each request then finds its
            # pair's last event strictly before it.
            scale = stop + 1
            composite = ev_keys * scale + positions
            ev_order = composite.argsort(kind="stable")
            last = composite[ev_order].searchsorted(ranked * scale + order) - 1
            found = last >= 0
            last = ev_order[last]  # last == -1 reads a wrong event, masked below
            found &= ev_keys[last] == ranked
            hit = np.where(found, added_mask[last], hit)
        in_order = np.empty(stop, dtype=bool)
        in_order[order] = hit
        routing = np.where(in_order, 1.0, lengths[:stop])
        if stop:
            self.total_routing_cost = float(running_total(self.total_routing_cost, routing)[-1])
            self.total_reconfiguration_cost = float(
                running_total(self.total_reconfiguration_cost, reconf)[-1]
            )
        self.requests_served += stop
        self.matched_requests += int(np.count_nonzero(hit))
        return SegmentLog(initial, in_order, routing, reconf, positions, ev_keys, added_mask, error)

    def serve_all(self, requests: Sequence[Request]) -> float:
        """Serve a whole trace and return the total cost incurred for it."""
        start = self.total_cost
        if self.requires_full_trace:
            self.fit(requests)
        for request in requests:
            self.serve(request)
        return self.total_cost - start

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _reconfigure(
        self,
        pair: NodePair,
        length: float,
        served_by_matching: bool,
        request: Request,
    ) -> tuple[Tuple[NodePair, ...], Tuple[NodePair, ...]]:
        """Adjust the matching after serving ``pair``.

        Returns the tuple ``(edges_added, edges_removed)``.  Implementations
        mutate :attr:`matching` directly; reconfiguration cost is derived by
        the caller from the matching's counters.
        """

    def _serve_segment(self, lo, hi, keys, lengths) -> tuple:
        """Run the policy over one decoded segment and log its matching changes.

        Only :meth:`_replay` calls this, with the arrays :meth:`_batch_arrays`
        returns.  The policy's state, randomness and raised errors must be
        those of :meth:`serve` called once per request; costs are not its
        business.  Returns ``(served, ev_pos, ev_key, ev_added, error)``:
        the number of requests committed (the whole segment unless ``error``
        is set), and every matching edge added or removed, in the order it
        was applied, as the position of the request that caused it, the
        edge's int key and whether it was added.  ``error`` is the exception
        that stopped the policy at request ``served``, unraised.  Events of
        requests from ``served`` on are ignored.

        This default is for policies that never change the matching while
        serving (oblivious routing, SO-BMA after :meth:`fit`): it logs no
        events.
        """
        return len(keys), (), (), (), None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} b={self.config.b} alpha={self.config.alpha} "
            f"served={self.requests_served}>"
        )
