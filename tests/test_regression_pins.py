"""Regression pins: exact costs of deterministic algorithms on fixed scenarios.

These tests pin the behaviour of the *deterministic* algorithms (BMA, Greedy,
SO-BMA, Oblivious, Rotor) on small hand-checkable scenarios.  They are not
derived from the paper; they protect the implementation against accidental
behavioural drift (e.g. a refactor changing an eviction tie-break) that the
property tests would not notice because the result would still be feasible.

The golden-trace classes at the bottom extend the same idea to *every*
registered algorithm (randomized ones under a pinned seed) on a committed
800-request trace: total costs, matching counters, and the checkpoint series
are pinned in ``tests/data/golden/golden_pins.json`` for every matching
backend (reference and fast), so any kernel or replay-path change that
alters observable results fails loudly here.

Deterministic algorithms are pinned in the ``pins`` section; randomized
ones (counter-RNG draws) in ``pins_counter``.  To regenerate the pins after
an *intentional* behaviour change, run with ``REPRO_REGEN_GOLDEN=1`` and
commit the updated JSON.
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import MatchingConfig, SimulationConfig
from repro.core import BMA, GreedyBMA, ObliviousRouting, RotorBMA, StaticOfflineBMA
from repro.core.registry import ALGORITHMS
from repro.simulation import run_simulation
from repro.topology import LeafSpineTopology
from repro.traffic.base import Trace
from repro.types import Request, as_requests

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


@pytest.fixture
def topo():
    return LeafSpineTopology(n_racks=6)  # all pair distances are 2


#: A fixed scenario: two hot pairs sharing node 0, one cold pair.
SCENARIO = [(0, 1)] * 4 + [(0, 2)] * 4 + [(3, 4)] * 2 + [(0, 1)] * 2 + [(0, 2)] * 2


class TestObliviousPin:
    def test_exact_cost(self, topo):
        algo = ObliviousRouting(topo, MatchingConfig(b=1, alpha=4))
        algo.serve_all(as_requests(SCENARIO))
        assert algo.total_routing_cost == 2.0 * len(SCENARIO)
        assert algo.total_reconfiguration_cost == 0.0


class TestBMAPin:
    def test_exact_trace_of_behaviour(self, topo):
        """alpha=4, lengths 2: a pair saturates on its 2nd unmatched request."""
        algo = BMA(topo, MatchingConfig(b=1, alpha=4))
        algo.serve_all(as_requests(SCENARIO))
        # Hand-derived: (0,1) enters after request 2; requests 3-4 matched.
        # (0,2) pays 2+2, saturates at request 6, evicting (0,1), then
        # requests 7-8 are matched.  (3,4) enters after request 10.  (0,1)
        # pays 2+2 again and re-enters at request 12, evicting (0,2); (0,2)
        # pays 2+2 and re-enters at request 14, evicting the freshly added
        # (0,1) (usefulness 0).  In total 5 additions and 3 removals.
        assert algo.matching.additions == 5
        assert algo.matching.removals == 3
        assert algo.total_reconfiguration_cost == pytest.approx(8 * 4.0)
        assert algo.total_routing_cost == pytest.approx(2 * 10 + 1 * 4)
        assert (0, 2) in algo.matching and (3, 4) in algo.matching

    def test_deterministic_repetition(self, topo):
        costs = set()
        for _ in range(3):
            algo = BMA(topo, MatchingConfig(b=1, alpha=4))
            algo.serve_all(as_requests(SCENARIO))
            costs.add(algo.total_cost)
        assert len(costs) == 1


class TestGreedyPin:
    def test_exact_cost(self, topo):
        """Greedy (threshold alpha=4) adds a pair after it paid 4 and never evicts."""
        algo = GreedyBMA(topo, MatchingConfig(b=1, alpha=4))
        algo.serve_all(as_requests(SCENARIO))
        # (0,1) enters after 2 requests and stays; (0,2) can never enter
        # (node 0 full); (3,4) enters after 2 requests.
        assert set(algo.matching.edges) == {(0, 1), (3, 4)}
        assert algo.matching.additions == 2
        assert algo.matching.removals == 0
        # Routing: (0,1): 2+2 then 4 matched at 1 -> 8; (0,2): 6 unmatched at 2 -> 12;
        # (3,4): 2+2 then 0 more unmatched... requests 9-10 are its only ones: 2+2=4.
        assert algo.total_routing_cost == pytest.approx((2 + 2 + 1 + 1) + (6 * 2) + (2 + 2) + (1 + 1) * 0 + 2 * 1)


class TestStaticOfflinePin:
    def test_chooses_heaviest_pairs(self, topo):
        algo = StaticOfflineBMA(topo, MatchingConfig(b=1, alpha=4))
        algo.serve_all(as_requests(SCENARIO))
        # Aggregate savings: (0,1) and (0,2) each 6 requests, (3,4) 2 requests;
        # with b=1 only one of the node-0 pairs fits, plus (3,4).
        edges = set(algo.matching.edges)
        assert (3, 4) in edges
        assert len(edges & {(0, 1), (0, 2)}) == 1
        assert algo.matched_fraction == pytest.approx(8 / 14)


class TestRotorPin:
    def test_schedule_and_costs(self, topo):
        algo = RotorBMA(topo, MatchingConfig(b=1, alpha=4), period=5)
        algo.serve_all(as_requests(SCENARIO))
        # 14 requests with period 5 -> 2 rotations; each rotation swaps one
        # slot of 3 edges out and 3 edges in.
        assert algo.matching.additions == 6
        assert algo.matching.removals == 6
        assert algo.total_reconfiguration_cost == pytest.approx(12 * 4.0)
        assert len(algo.installed_slots) == 1


# --------------------------------------------------------------------------- #
# Golden-trace pins: every registered algorithm on a committed trace
# --------------------------------------------------------------------------- #

def _load_golden():
    with open(GOLDEN_DIR / "golden_trace.json") as fh:
        trace_data = json.load(fh)
    with open(GOLDEN_DIR / "golden_pins.json") as fh:
        pin_data = json.load(fh)
    trace = Trace.from_pairs(
        [tuple(p) for p in trace_data["pairs"]], trace_data["n_nodes"], name="golden"
    )
    return trace, pin_data


GOLDEN_TRACE, GOLDEN = _load_golden()
#: Deterministic algorithms, pinned in ``pins``.
GOLDEN_ALGORITHMS = sorted(GOLDEN["pins"])
#: Algorithms whose serve path draws randomness, pinned in ``pins_counter``.
RANDOMIZED_GOLDEN = sorted(GOLDEN["pins_counter"])


def _run_golden(algorithm: str, backend: str):
    topology = LeafSpineTopology(n_racks=GOLDEN_TRACE.n_nodes)
    algo = ALGORITHMS.build(
        algorithm,
        topology,
        MatchingConfig(b=GOLDEN["b"], alpha=GOLDEN["alpha"]),
        GOLDEN["algorithm_seed"],
        **GOLDEN["algorithm_params"].get(algorithm, {}),
    )
    result = run_simulation(
        algo,
        GOLDEN_TRACE,
        SimulationConfig(checkpoints=GOLDEN["checkpoints"], matching_backend=backend),
    )
    return {
        "total_routing_cost": result.total_routing_cost,
        "total_reconfiguration_cost": result.total_reconfiguration_cost,
        "matched_fraction": result.matched_fraction,
        "additions": algo.matching.additions,
        "removals": algo.matching.removals,
        "checkpoint_routing": result.series.routing_cost.tolist(),
    }


def test_golden_registry_is_complete():
    """A newly registered algorithm must get a golden pin (regenerate)."""
    canonical = sorted({ALGORITHMS.canonical(name) for name in ALGORITHMS.names()})
    assert canonical == sorted(GOLDEN_ALGORITHMS + RANDOMIZED_GOLDEN)
    assert RANDOMIZED_GOLDEN == sorted(
        name for name in canonical if getattr(ALGORITHMS.resolve(name), "uses_rng", False)
    )


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("algorithm", GOLDEN_ALGORITHMS)
def test_golden_trace_pins(algorithm, backend):
    """Exact totals/counters/series on the committed trace, every kernel."""
    observed = _run_golden(algorithm, backend)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        GOLDEN["pins"][algorithm] = observed
        with open(GOLDEN_DIR / "golden_pins.json", "w") as fh:
            json.dump(GOLDEN, fh, indent=1)
        pytest.skip("regenerated golden pins")
    assert observed == GOLDEN["pins"][algorithm], (
        f"{algorithm} ({backend} backend) drifted from its golden pin; if the "
        "change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("algorithm", RANDOMIZED_GOLDEN)
def test_golden_trace_pins_counter(algorithm, backend):
    """Pins for the randomized algorithms (keyed counter-RNG draws)."""
    observed = _run_golden(algorithm, backend)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        GOLDEN.setdefault("pins_counter", {})[algorithm] = observed
        with open(GOLDEN_DIR / "golden_pins.json", "w") as fh:
            json.dump(GOLDEN, fh, indent=1)
        pytest.skip("regenerated golden pins")
    assert observed == GOLDEN["pins_counter"][algorithm], (
        f"{algorithm} ({backend} backend, counter rng) drifted from its golden "
        "pin; if the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )
