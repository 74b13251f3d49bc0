"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    try:  # pragma: no cover - only matters in uninstalled environments
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.config import MatchingConfig, SimulationConfig
from repro.topology import FatTreeTopology, LeafSpineTopology, StarTopology
from repro.traffic import database_trace, uniform_random_trace, zipf_pair_trace


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``parallel``/``sched``-marked tests on single-CPU hosts.

    Process-pool sharding works on one CPU but only adds overhead there, and
    CI boxes with a single core should not pay for (or flake on) pool
    startup; the marker documents the requirement instead of each test
    re-checking it.  ``sched`` tests spawn real worker subprocesses and
    follow the same rule, but honour ``REPRO_FORCE_SCHED`` as an escape
    hatch so the tier can still be exercised deliberately on one core.
    """
    if (os.cpu_count() or 1) >= 2:
        return
    skip = pytest.mark.skip(reason="parallel tests need os.cpu_count() >= 2")
    force_sched = bool(os.environ.get("REPRO_FORCE_SCHED", "").strip())
    skip_sched = pytest.mark.skip(
        reason="sched tests need os.cpu_count() >= 2 (set REPRO_FORCE_SCHED=1 to force)"
    )
    for item in items:
        if "parallel" in item.keywords:
            item.add_marker(skip)
        if "sched" in item.keywords and not force_sched:
            item.add_marker(skip_sched)


@pytest.fixture(autouse=True)
def _no_ambient_run_store(monkeypatch):
    """Keep the suite hermetic: a developer's ``REPRO_RUN_STORE`` must not
    leak cached results into tests that expect cold runs (store tests opt
    in by passing explicit store paths)."""
    monkeypatch.delenv("REPRO_RUN_STORE", raising=False)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Chaos hygiene: no test runs under a leaked fault plan.

    ``REPRO_FAULTS`` in the environment would install faults in every
    worker subprocess a test spawns, and an in-process plan left behind by
    a buggy test would poison its neighbours; chaos tests opt in through
    ``injected_faults``/``install_faults`` or explicit env manipulation.
    """
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    from repro.faults import clear_faults

    clear_faults()
    yield
    clear_faults()


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Every test starts with an empty :mod:`repro.obs` registry, so a
    process total counts that test's own work."""
    from repro.obs import reset

    reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_leafspine() -> LeafSpineTopology:
    """8-rack leaf-spine topology: all pair distances equal 2."""
    return LeafSpineTopology(n_racks=8, n_spines=2)


@pytest.fixture
def small_fattree() -> FatTreeTopology:
    """Fat-tree hosting 16 racks (k=8): distances 2 within a pod, 4 across."""
    return FatTreeTopology(n_racks=16)


@pytest.fixture
def star_lb_topology() -> StarTopology:
    """Star with the hub as rack 0, used by lower-bound constructions."""
    return StarTopology(n_racks=6, hub_is_rack=True)


@pytest.fixture
def small_config() -> MatchingConfig:
    """b = 3, alpha = 4 — small enough that reconfiguration happens quickly."""
    return MatchingConfig(b=3, alpha=4)


@pytest.fixture
def sim_config() -> SimulationConfig:
    """10 checkpoints, fixed seed."""
    return SimulationConfig(checkpoints=10, seed=7)


@pytest.fixture
def small_trace() -> "object":
    """A small skewed trace over 8 racks."""
    return zipf_pair_trace(n_nodes=8, n_requests=400, exponent=1.3, seed=3)


@pytest.fixture
def uniform_trace():
    """A small uniform trace over 8 racks."""
    return uniform_random_trace(n_nodes=8, n_requests=300, seed=5)


@pytest.fixture
def fb_like_trace():
    """A scaled-down Facebook-database-like trace over 16 racks."""
    return database_trace(n_nodes=16, n_requests=2_000, seed=11)
