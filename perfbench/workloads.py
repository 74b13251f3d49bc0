"""The benchmark's three workloads: which specs a panel runs, and where.

Each workload is one figure-style panel, executed from its spec list to
verified results through the public execution stack
(``build_execution_plan`` then ``execute_plan``).  The run loop is closed
with a single client: the next panel starts only when the previous one has
returned.

``fig4-replay``
    The fig4 panel of ``benchmarks/_harness.figure_specs`` (microsoft, 50
    racks, 87,500 requests: rbma and bma at b in {3, 6, 9}, oblivious,
    so-bma at b = 9) on the serial backend with materialized traces and no
    store.  Replay dominates; the blossom pre-solve is a small share.
``fig2-solve``
    The fig2 panel (facebook-web, 100 racks, 20,000 requests, b in
    {6, 12, 18}, so-bma at b = 18) on the serial backend with no store.
    The SO-BMA pre-solve dominates; replay is the rest.
``zoo-stream-queue``
    facebook-database, 100 racks, 35,000 requests, streamed in 4096-request
    chunks through the online algorithms the figure panels never drive
    (uniform, hybrid, rotor, predictive, greedy) plus rbma, all at b = 12,
    two repetitions, on the queue backend with two local workers and a
    fresh run store per panel.  The only workload that runs trace streams,
    tee, queue claims, worker start-up and store writes; no SO-BMA, so the
    solver is idle.

Request counts follow ``REPRO_BENCH_SCALE``, which the benchmark pins: the
harness default 0.05 when measuring, 0 for the self-test, where the
harness's 2,000-request floor sizes the figure panels.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a spec grid plus its execution settings."""

    name: str
    seed: int  # the panel seed the specs' repetition seeds derive from
    specs: tuple  # seeded ExperimentSpec objects, in result order
    backend: str
    workers: int
    store: bool
    #: Queue poll interval.  The default 0.2 s rounds every queue panel up
    #: to the parent's 0.1 s polling grid, a 5% step on a 2 s panel.
    poll_interval: float = 0.02

    @property
    def labels(self) -> List[str]:
        """Stable per-spec labels (algorithm, b and repetition)."""
        labels = []
        seeds = []
        for spec in self.specs:
            if spec.seed not in seeds:
                seeds.append(spec.seed)
            labels.append(
                f"{spec.algorithm.name} b={spec.algorithm.b} rep={seeds.index(spec.seed)}"
            )
        return labels


def harness():
    """``benchmarks/_harness``, the figure benchmarks' shared module."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    import _harness

    return _harness


#: The algorithms of the zoo workload with their extra parameters.
ZOO_ALGORITHMS = (
    ("uniform", {}),
    ("hybrid", {"period": 200, "window": 400}),
    ("rotor", {}),
    ("predictive", {}),
    ("greedy", {}),
    ("rbma", {}),
)


def _zoo() -> list:
    from repro.experiments import ExperimentSpec

    h = harness()
    requests = h.scaled_requests(700_000)  # 35,000 at the default scale
    # 4096-request chunks; the self-test's 2,000 requests still stream in 4.
    traffic = {"name": "facebook-database",
               "params": {"n_nodes": 100, "n_requests": requests},
               "streaming": True, "chunk_size": min(4_096, requests // 4)}
    return [ExperimentSpec.from_dict({
        "algorithm": {"name": name, "b": 12, "alpha": h.DEFAULT_ALPHA,
                      "params": dict(params)},
        "traffic": traffic,
        "simulation": {"checkpoints": 10},
    }) for name, params in ZOO_ALGORITHMS]


def build(name: str, seed: int) -> Workload:
    """One panel of the named workload, its traces drawn from ``seed``."""
    from repro.experiments.specs import spawn_seeds

    if name == "fig4-replay":
        base = harness().figure_specs("fig4")
        repetitions, backend, workers, store = 1, "serial", 1, False
    elif name == "fig2-solve":
        base = harness().figure_specs("fig2")
        repetitions, backend, workers, store = 1, "serial", 1, False
    elif name == "zoo-stream-queue":
        base = _zoo()
        repetitions, backend, workers, store = 2, "queue", 2, True
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    # Repetition seeds are spawned as ExperimentRunner spawns them, and the
    # repetition-major order keeps specs sharing a trace consecutive, so the
    # planner groups them into one task.
    specs = tuple(spec.with_seed(s) for s in spawn_seeds(seed, repetitions)
                  for spec in base)
    return Workload(name, seed, specs, backend, workers, store)


NAMES = ("fig4-replay", "fig2-solve", "zoo-stream-queue")
