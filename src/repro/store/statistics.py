"""Cross-run statistics over a populated run store.

Two orthogonal views of history:

* **Per-fingerprint recomputation history** — every time the same seeded
  spec is recomputed (store disabled for reads, forced cold runs,
  benchmark arms), :meth:`RunStore.put` appends a ``(timestamp,
  wall_seconds, total_cost)`` row.  :func:`spec_statistics` turns that into
  mean/stddev/bootstrap-CI runtime statistics and two regression flags:

  - ``cost_regression`` — total cost drifted across recomputations of the
    *same* fingerprint.  The whole simulation stack is deterministic, so
    any drift is a reproducibility bug, flagged unconditionally.
  - ``runtime_regression`` — the newest wall-clock sample lies outside the
    bootstrap confidence interval of the preceding samples (needs at least
    :data:`MIN_HISTORY` prior samples; timing noise on fewer is not
    evidence).

* **Per-configuration spread across seeds** — :func:`group_statistics`
  groups entries that differ only in seed (same algorithm, workload,
  topology, ``b``, ``alpha``, request count) and reports the spread of
  total cost and runtime across those independent repetitions, i.e. the
  error bars the paper's "averaged over five runs" methodology implies.

The bootstrap is the plain percentile method with a fixed RNG seed, so
``repro runs stats`` output is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .run_store import RunEntry, RunStore

__all__ = [
    "MIN_HISTORY",
    "SampleStats",
    "SpecHistory",
    "GroupStats",
    "bootstrap_ci",
    "sample_statistics",
    "spec_statistics",
    "store_statistics",
    "group_statistics",
]

#: Minimum number of *prior* samples before a runtime regression can be
#: flagged; with fewer, the CI is too wide to mean anything.
MIN_HISTORY = 3


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean of ``values``.

    Deterministic for a given ``seed``; degenerates gracefully: one sample
    yields a zero-width interval at that sample.
    """
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if data.size == 1:
        return float(data[0]), float(data[0])
    rng = np.random.default_rng(seed)
    samples = rng.choice(data, size=(n_resamples, data.size), replace=True)
    means = samples.mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [tail, 1.0 - tail])
    return float(low), float(high)


@dataclass(frozen=True)
class SampleStats:
    """Summary of one metric's samples: moments plus a bootstrap CI."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

    def covers(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
        }


def sample_statistics(
    values: Sequence[float], confidence: float = 0.95
) -> SampleStats:
    """Mean/stddev/bootstrap-CI summary of a sample."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ConfigurationError("cannot summarise an empty sample")
    low, high = bootstrap_ci(data, confidence=confidence)
    return SampleStats(
        n=int(data.size),
        mean=float(data.mean()),
        std=float(data.std()),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )


@dataclass(frozen=True)
class SpecHistory:
    """Statistics of one fingerprint's recomputation history."""

    fingerprint: str
    algorithm: str
    workload: str
    b: int
    seed: Optional[int]
    n_runs: int
    runtime: SampleStats
    cost: SampleStats
    latest_wall_seconds: float
    latest_total_cost: float
    cost_regression: bool
    runtime_regression: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "workload": self.workload,
            "b": self.b,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "runtime": self.runtime.to_dict(),
            "cost": self.cost.to_dict(),
            "latest_wall_seconds": self.latest_wall_seconds,
            "latest_total_cost": self.latest_total_cost,
            "cost_regression": self.cost_regression,
            "runtime_regression": self.runtime_regression,
        }


def spec_statistics(store: RunStore, fingerprint: str) -> SpecHistory:
    """History statistics for one stored fingerprint (see module docs)."""
    payload = store.get_payload(fingerprint)
    if payload is None:
        raise ConfigurationError(
            f"no stored run with fingerprint {fingerprint!r}"
        )
    history = payload.get("history") or []
    walls = [float(row["wall_seconds"]) for row in history]
    costs = [float(row["total_cost"]) for row in history]
    if not walls:  # legacy entry without history: synthesise from the result
        walls = [float(payload["result"]["total_elapsed_seconds"])]
        costs = [
            float(payload["result"]["total_routing_cost"])
            + float(payload["result"]["total_reconfiguration_cost"])
        ]
    result = payload["result"]
    runtime_regression = False
    if len(walls) > MIN_HISTORY:
        prior = sample_statistics(walls[:-1])
        runtime_regression = not prior.covers(walls[-1])
    return SpecHistory(
        fingerprint=payload["fingerprint"],
        algorithm=result["algorithm"],
        workload=result["workload"],
        b=int(result["b"]),
        seed=result.get("seed"),
        n_runs=len(walls),
        runtime=sample_statistics(walls),
        cost=sample_statistics(costs),
        latest_wall_seconds=walls[-1],
        latest_total_cost=costs[-1],
        # Determinism contract: identical fingerprint => identical cost.
        cost_regression=len(set(costs)) > 1,
        runtime_regression=runtime_regression,
    )


def store_statistics(store: RunStore) -> List[SpecHistory]:
    """Per-fingerprint history statistics for every entry, newest first."""
    return [spec_statistics(store, entry.fingerprint) for entry in store.list_runs()]


@dataclass(frozen=True)
class GroupStats:
    """Cross-seed statistics of one configuration family."""

    algorithm: str
    workload: str
    topology: str
    b: int
    alpha: float
    n_requests: int
    seeds: Tuple[Optional[int], ...]
    cost: SampleStats
    runtime: SampleStats

    @property
    def label(self) -> str:
        return f"{self.algorithm} (b: {self.b})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "topology": self.topology,
            "b": self.b,
            "alpha": self.alpha,
            "n_requests": self.n_requests,
            "seeds": list(self.seeds),
            "cost": self.cost.to_dict(),
            "runtime": self.runtime.to_dict(),
        }


def group_statistics(store: RunStore) -> List[GroupStats]:
    """Entries grouped by configuration (seed varying), with spread stats.

    The grouping key is (algorithm, workload, topology, b, alpha,
    n_requests): entries differing only in seed are independent repetitions
    of the same experiment, so their spread estimates the error bars of the
    paper's averaged figures.  Groups come back sorted by workload,
    algorithm, then ``b``.
    """
    groups: Dict[tuple, List[RunEntry]] = {}
    for entry in store.list_runs():
        key = (
            entry.workload,
            entry.algorithm,
            entry.topology,
            entry.b,
            entry.alpha,
            entry.n_requests,
        )
        groups.setdefault(key, []).append(entry)
    out: List[GroupStats] = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[3], k[4])):
        members = groups[key]
        workload, algorithm, topology, b, alpha, n_requests = key
        out.append(
            GroupStats(
                algorithm=algorithm,
                workload=workload,
                topology=topology,
                b=b,
                alpha=alpha,
                n_requests=n_requests,
                seeds=tuple(m.seed for m in members),
                cost=sample_statistics([m.total_cost for m in members]),
                runtime=sample_statistics(
                    [m.total_elapsed_seconds for m in members]
                ),
            )
        )
    return out
