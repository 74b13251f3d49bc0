"""repro — reproduction of "Optimizing Reconfigurable Optical Datacenters:
The Power of Randomization" (Bienkowski, Fuchssteiner, Schmid; SC 2023).

The package implements the paper's randomized online b-matching algorithm
(R-BMA) together with every substrate its evaluation depends on: datacenter
topologies, paging algorithms, dynamic and static b-matching, synthetic
datacenter workloads, a simulation engine, and analysis tools (offline
optimum, competitive ratios, adversarial traces).

Quickstart
----------
Experiments are plain data: an :class:`ExperimentSpec` names the algorithm,
workload and topology, carries every parameter, and round-trips through JSON
(``spec.save_json("exp.json")`` / ``repro run exp.json``).

>>> from repro import ExperimentSpec
>>> spec = ExperimentSpec(
...     algorithm={"name": "rbma", "b": 12, "alpha": 10},
...     traffic={"name": "facebook-database",
...              "params": {"n_nodes": 100, "n_requests": 5_000}},
...     seed=0,
... )
>>> result = spec.execute()
>>> result.total_routing_cost > 0
True
>>> ExperimentSpec.from_dict(result.spec) == spec  # provenance travels along
True

Sweeps are cartesian grids over spec fields:

>>> specs = spec.expand({"algorithm.name": ["rbma", "bma"],
...                      "algorithm.b": [6, 12]})
>>> [s.label for s in specs]
['rbma (b: 6)', 'rbma (b: 12)', 'bma (b: 6)', 'bma (b: 12)']

The imperative API remains for hand-wired setups:

>>> from repro import MatchingConfig, RBMA, run_simulation
>>> from repro.topology import FatTreeTopology
>>> from repro.traffic import database_trace
>>> topo = FatTreeTopology(n_racks=100)
>>> trace = database_trace(n_nodes=100, n_requests=5_000, seed=0)
>>> algo = RBMA(topo, MatchingConfig(b=12, alpha=10), rng=0)
>>> run_simulation(algo, trace).total_routing_cost < 5_000 * topo.mean_distance()
True
"""

from ._version import __version__
from .config import MatchingConfig, SimulationConfig, SweepConfig
from .errors import (
    ConfigurationError,
    DegreeConstraintError,
    MatchingError,
    PagingError,
    ReproError,
    SimulationError,
    SolverError,
    TopologyError,
    TrafficError,
)
from .types import NodePair, Request, canonical_pair
from .core import (
    BMA,
    RBMA,
    GreedyBMA,
    ObliviousRouting,
    OnlineBMatchingAlgorithm,
    PredictiveBMA,
    StaticOfflineBMA,
    UniformBMatching,
    available_algorithms,
    make_algorithm,
)
from .matching import BMatching
from .experiments import (
    AlgorithmSpec,
    CostTraceObserver,
    ExperimentSpec,
    ProgressObserver,
    Registry,
    SimulationObserver,
    TopologySpec,
    TrafficSpec,
    ValidationObserver,
    expand_grid,
    spawn_seeds,
)
from .simulation import (
    AggregateResult,
    ExperimentRunner,
    RunResult,
    execute_experiment_spec,
    run_experiments,
    run_simulation,
    run_sweep,
)
from .store import (
    RunStore,
    StoreConfig,
    default_store,
    fingerprint_spec,
    resolve_store,
)

__all__ = [
    "__version__",
    # configuration
    "MatchingConfig",
    "SimulationConfig",
    "SweepConfig",
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "TrafficError",
    "MatchingError",
    "DegreeConstraintError",
    "PagingError",
    "SimulationError",
    "SolverError",
    # primitives
    "Request",
    "NodePair",
    "canonical_pair",
    "BMatching",
    # algorithms
    "OnlineBMatchingAlgorithm",
    "RBMA",
    "BMA",
    "ObliviousRouting",
    "GreedyBMA",
    "StaticOfflineBMA",
    "UniformBMatching",
    "PredictiveBMA",
    "available_algorithms",
    "make_algorithm",
    # declarative experiments
    "Registry",
    "ExperimentSpec",
    "AlgorithmSpec",
    "TrafficSpec",
    "TopologySpec",
    "expand_grid",
    "spawn_seeds",
    # observers
    "SimulationObserver",
    "ProgressObserver",
    "ValidationObserver",
    "CostTraceObserver",
    # simulation
    "run_simulation",
    "run_sweep",
    "run_experiments",
    "execute_experiment_spec",
    "RunResult",
    "AggregateResult",
    "ExperimentRunner",
    # persistent run store
    "RunStore",
    "StoreConfig",
    "fingerprint_spec",
    "default_store",
    "resolve_store",
]
