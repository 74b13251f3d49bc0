"""Public-API contract: ``repro.__all__`` stays importable and stable.

Guards the package surface across refactors: every exported name must be a
real attribute, the pre-redesign names must keep working (the legacy registry
entry points are shims now, not gone), and the new declarative API must be
reachable from the package root.
"""

import pytest

import repro

pytestmark = pytest.mark.smoke

#: Names that existed before the ExperimentSpec redesign and must never break.
LEGACY_EXPORTS = [
    "__version__",
    "MatchingConfig", "SimulationConfig", "SweepConfig",
    "ReproError", "ConfigurationError", "TopologyError", "TrafficError",
    "MatchingError", "DegreeConstraintError", "PagingError", "SimulationError",
    "SolverError",
    "Request", "NodePair", "canonical_pair", "BMatching",
    "OnlineBMatchingAlgorithm", "RBMA", "BMA", "ObliviousRouting", "GreedyBMA",
    "StaticOfflineBMA", "UniformBMatching", "PredictiveBMA",
    "available_algorithms", "make_algorithm",
    "run_simulation", "run_sweep", "RunResult", "AggregateResult",
    "ExperimentRunner",
]

#: The declarative-experiment surface added by the redesign.
SPEC_EXPORTS = [
    "Registry",
    "ExperimentSpec", "AlgorithmSpec", "TrafficSpec", "TopologySpec",
    "expand_grid", "spawn_seeds",
    "SimulationObserver", "ProgressObserver", "ValidationObserver",
    "CostTraceObserver",
    "run_experiments", "execute_experiment_spec",
]


def test_all_names_are_importable():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} is broken"


@pytest.mark.parametrize("name", LEGACY_EXPORTS)
def test_legacy_export_present(name):
    assert name in repro.__all__
    assert getattr(repro, name, None) is not None


@pytest.mark.parametrize("name", SPEC_EXPORTS)
def test_spec_export_present(name):
    assert name in repro.__all__
    assert getattr(repro, name, None) is not None


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


class TestLegacyRegistryShims:
    """The four pre-redesign registry modules keep their entry points."""

    def test_core_shims(self):
        from repro.core.registry import (
            available_algorithms,
            make_algorithm,
            register_algorithm,
        )
        from repro.config import MatchingConfig
        from repro.topology import LeafSpineTopology

        assert "rbma" in available_algorithms()
        algo = make_algorithm("rbma", LeafSpineTopology(4), MatchingConfig(b=1), rng=0)
        assert algo.name == "rbma"
        assert callable(register_algorithm)

    def test_topology_shims(self):
        from repro.topology.registry import (
            available_topologies,
            make_topology,
            register_topology,
        )

        assert "fat-tree" in available_topologies()
        assert make_topology("ring", n_racks=4).n_racks == 4
        assert callable(register_topology)

    def test_traffic_shims(self):
        from repro.traffic.registry import (
            available_workloads,
            make_workload,
            register_workload,
        )

        assert "microsoft" in available_workloads()
        assert len(make_workload("uniform", n_nodes=4, n_requests=10, seed=0)) == 10
        assert callable(register_workload)

    def test_paging_shims(self):
        from repro.paging.registry import (
            available_paging_policies,
            make_paging_factory,
        )

        assert "marking" in available_paging_policies()
        factory = make_paging_factory("lru")
        assert factory(2, None).capacity == 2

    def test_register_shims_feed_the_generic_registries(self):
        from repro.core.registry import ALGORITHMS, register_algorithm
        from repro.errors import ConfigurationError

        class _Fake:
            pass

        register_algorithm("test-only-fake", _Fake)
        try:
            assert "test-only-fake" in ALGORITHMS
            with pytest.raises(ConfigurationError):
                register_algorithm("test-only-fake", _Fake)
        finally:
            ALGORITHMS.unregister("test-only-fake")
        assert "test-only-fake" not in ALGORITHMS


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1
