"""The end-to-end benchmark's span targets exist and stay on the call path.

``perfbench/probes.py`` wraps named entry points of the program from outside
(``engine.drive``, ``trace.generate``, ``plan.presolve``, ``paging.process``,
...) and raises on any target that was renamed or removed.  This test
installs the probes unchanged, drives a materialized run (with marking and
with LRU pagers), a streamed run and a serial SO-BMA plan, and checks that
each layer recorded a call — so a refactor that moves a target off the
call path fails here, in seconds, instead of halfway through a benchmark
run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.config import MatchingConfig, SimulationConfig
from repro.core import RBMA
from repro.exec import build_execution_plan, execute_plan
from repro.experiments import ExperimentSpec
from repro.simulation import engine
from repro.topology import FatTreeTopology
from repro.traffic import zipf_pair_trace

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spec(name: str, **traffic) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm={"name": name, "b": 2, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 300}, **traffic},
        simulation={"checkpoints": 3},
        seed=7,
    )


def test_every_layer_target_records_a_call():
    probes = _load_probes()
    recorder = probes.Recorder()
    probes.install(recorder)
    try:
        trace = zipf_pair_trace(n_nodes=10, n_requests=300, seed=3)
        algorithm = RBMA(FatTreeTopology(n_racks=10), MatchingConfig(b=2, alpha=4.0), rng=0)
        engine.run_simulation(algorithm, trace, SimulationConfig(checkpoints=3))
        # Marking pagers replay specials in one flat loop that calls no pager
        # method; an LRU pager is not that class, so its specials go through
        # ``PerNodePagingMatcher.process`` on the replay path.
        before = recorder.calls("paging.process")
        lru = RBMA(FatTreeTopology(n_racks=10), MatchingConfig(b=2, alpha=4.0), rng=0,
                   paging_policy="lru")
        engine.run_simulation(lru, trace, SimulationConfig(checkpoints=3))
        assert recorder.calls("paging.process") > before
        _spec("rbma", streaming=True, chunk_size=64).execute()
        plan = build_execution_plan([_spec("so-bma"), _spec("rbma")], store=False)
        execute_plan(plan, backend="serial")
    finally:
        probes.uninstall()
    for name in ("engine.drive", "trace.generate", "plan.presolve", "paging.process"):
        assert recorder.calls(name) >= 1, f"probe target {name!r} recorded no call"
