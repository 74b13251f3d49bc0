"""Result containers and aggregation.

A :class:`RunResult` captures one algorithm run over one trace: the
checkpointed series (routing cost, reconfiguration cost, wall-clock time,
matched fraction) plus final totals and enough metadata to regenerate the
run.  :func:`aggregate_runs` averages repetitions into an
:class:`AggregateResult`, mirroring the paper's methodology ("each simulation
is repeated five times and then the results are averaged").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Union

import numpy as np

from ..errors import SimulationError

__all__ = ["CheckpointSeries", "RunResult", "AggregateResult", "aggregate_runs"]

PathLike = Union[str, Path]


def _json_safe(value: Any) -> Any:
    """Coerce result metadata to plain JSON-serialisable Python values.

    ``RunResult.extra`` is an open dict that algorithms and the engine
    populate; a stray ``np.float64`` total or an ``np.ndarray`` diagnostic
    would serialise differently across code paths (or not at all) and break
    both ``save_json`` and the run store's bit-identity contract, so
    ``to_dict`` funnels the whole dict through this normaliser.  Sets are
    emitted in sorted order so the serialised form is deterministic.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(item) for item in value)
    return value


@dataclass(frozen=True)
class CheckpointSeries:
    """Values recorded at evenly spaced request counts.

    Attributes
    ----------
    requests:
        Number of requests served at each checkpoint (x-axis).
    routing_cost:
        Cumulative routing cost at each checkpoint.
    reconfiguration_cost:
        Cumulative reconfiguration cost (α per change) at each checkpoint.
    elapsed_seconds:
        Cumulative algorithm wall-clock time at each checkpoint.
    matched_fraction:
        Fraction of requests served over matching edges, up to each checkpoint.
    """

    requests: np.ndarray
    routing_cost: np.ndarray
    reconfiguration_cost: np.ndarray
    elapsed_seconds: np.ndarray
    matched_fraction: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.requests),
            len(self.routing_cost),
            len(self.reconfiguration_cost),
            len(self.elapsed_seconds),
            len(self.matched_fraction),
        }
        if len(lengths) != 1:
            raise SimulationError(f"checkpoint series have inconsistent lengths: {lengths}")

    @property
    def total_cost(self) -> np.ndarray:
        """Routing plus reconfiguration cost at each checkpoint."""
        return self.routing_cost + self.reconfiguration_cost

    def to_dict(self) -> Dict[str, list]:
        """JSON-serialisable representation."""
        return {
            "requests": self.requests.tolist(),
            "routing_cost": self.routing_cost.tolist(),
            "reconfiguration_cost": self.reconfiguration_cost.tolist(),
            "elapsed_seconds": self.elapsed_seconds.tolist(),
            "matched_fraction": self.matched_fraction.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[float]]) -> "CheckpointSeries":
        """Inverse of :meth:`to_dict`."""
        return cls(
            requests=np.asarray(data["requests"], dtype=np.int64),
            routing_cost=np.asarray(data["routing_cost"], dtype=np.float64),
            reconfiguration_cost=np.asarray(data["reconfiguration_cost"], dtype=np.float64),
            elapsed_seconds=np.asarray(data["elapsed_seconds"], dtype=np.float64),
            matched_fraction=np.asarray(data["matched_fraction"], dtype=np.float64),
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single simulation run.

    ``spec`` records the originating
    :class:`~repro.experiments.specs.ExperimentSpec` (as its plain-dict form)
    when the run was driven by one, so any saved result can be replayed with
    ``ExperimentSpec.from_dict(result.spec)``.
    """

    algorithm: str
    workload: str
    topology: str
    b: int
    alpha: float
    n_requests: int
    seed: int | None
    series: CheckpointSeries
    total_routing_cost: float
    total_reconfiguration_cost: float
    total_elapsed_seconds: float
    matched_fraction: float
    extra: Dict[str, Any] = field(default_factory=dict)
    spec: Dict[str, Any] | None = None

    @property
    def total_cost(self) -> float:
        """Final routing plus reconfiguration cost."""
        return self.total_routing_cost + self.total_reconfiguration_cost

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "topology": self.topology,
            "b": self.b,
            "alpha": self.alpha,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "series": self.series.to_dict(),
            "total_routing_cost": self.total_routing_cost,
            "total_reconfiguration_cost": self.total_reconfiguration_cost,
            "total_elapsed_seconds": self.total_elapsed_seconds,
            "matched_fraction": self.matched_fraction,
            "extra": _json_safe(self.extra),
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            algorithm=data["algorithm"],
            workload=data["workload"],
            topology=data["topology"],
            b=int(data["b"]),
            alpha=float(data["alpha"]),
            n_requests=int(data["n_requests"]),
            seed=data.get("seed"),
            series=CheckpointSeries.from_dict(data["series"]),
            total_routing_cost=float(data["total_routing_cost"]),
            total_reconfiguration_cost=float(data["total_reconfiguration_cost"]),
            total_elapsed_seconds=float(data["total_elapsed_seconds"]),
            matched_fraction=float(data["matched_fraction"]),
            extra=dict(data.get("extra", {})),
            spec=dict(data["spec"]) if data.get("spec") is not None else None,
        )

    def save_json(self, path: PathLike) -> None:
        """Write the result as a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load_json(cls, path: PathLike) -> "RunResult":
        """Load a result written by :meth:`save_json`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class AggregateResult:
    """Mean (and spread) of several repetitions of the same configuration."""

    algorithm: str
    workload: str
    topology: str
    b: int
    alpha: float
    n_requests: int
    repetitions: int
    series: CheckpointSeries
    routing_cost_mean: float
    routing_cost_std: float
    elapsed_seconds_mean: float
    elapsed_seconds_std: float
    matched_fraction_mean: float

    @property
    def label(self) -> str:
        """Short label used in benchmark tables, e.g. ``"rbma (b: 12)"``."""
        return f"{self.algorithm} (b: {self.b})"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "topology": self.topology,
            "b": self.b,
            "alpha": self.alpha,
            "n_requests": self.n_requests,
            "repetitions": self.repetitions,
            "series": self.series.to_dict(),
            "routing_cost_mean": self.routing_cost_mean,
            "routing_cost_std": self.routing_cost_std,
            "elapsed_seconds_mean": self.elapsed_seconds_mean,
            "elapsed_seconds_std": self.elapsed_seconds_std,
            "matched_fraction_mean": self.matched_fraction_mean,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AggregateResult":
        """Inverse of :meth:`to_dict` (round-trip symmetric, like :class:`RunResult`)."""
        return cls(
            algorithm=data["algorithm"],
            workload=data["workload"],
            topology=data["topology"],
            b=int(data["b"]),
            alpha=float(data["alpha"]),
            n_requests=int(data["n_requests"]),
            repetitions=int(data["repetitions"]),
            series=CheckpointSeries.from_dict(data["series"]),
            routing_cost_mean=float(data["routing_cost_mean"]),
            routing_cost_std=float(data["routing_cost_std"]),
            elapsed_seconds_mean=float(data["elapsed_seconds_mean"]),
            elapsed_seconds_std=float(data["elapsed_seconds_std"]),
            matched_fraction_mean=float(data["matched_fraction_mean"]),
        )

    def save_json(self, path: PathLike) -> None:
        """Write the aggregate as a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load_json(cls, path: PathLike) -> "AggregateResult":
        """Load an aggregate written by :meth:`save_json`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def aggregate_runs(runs: Sequence[RunResult]) -> AggregateResult:
    """Average repetitions of the same configuration into one result.

    All runs must share algorithm, workload, topology, ``b``, ``alpha`` and
    request count; only the seed may differ.
    """
    if not runs:
        raise SimulationError("cannot aggregate an empty list of runs")
    first = runs[0]
    for run in runs[1:]:
        if (
            run.algorithm != first.algorithm
            or run.workload != first.workload
            or run.topology != first.topology
            or run.b != first.b
            or run.alpha != first.alpha
            or run.n_requests != first.n_requests
        ):
            raise SimulationError(
                "aggregate_runs requires identical configurations; "
                f"got {run.algorithm}/{run.b} vs {first.algorithm}/{first.b}"
            )
    routing = np.stack([r.series.routing_cost for r in runs])
    reconf = np.stack([r.series.reconfiguration_cost for r in runs])
    elapsed = np.stack([r.series.elapsed_seconds for r in runs])
    matched = np.stack([r.series.matched_fraction for r in runs])
    series = CheckpointSeries(
        requests=first.series.requests.copy(),
        routing_cost=routing.mean(axis=0),
        reconfiguration_cost=reconf.mean(axis=0),
        elapsed_seconds=elapsed.mean(axis=0),
        matched_fraction=matched.mean(axis=0),
    )
    final_routing = np.array([r.total_routing_cost for r in runs])
    final_elapsed = np.array([r.total_elapsed_seconds for r in runs])
    return AggregateResult(
        algorithm=first.algorithm,
        workload=first.workload,
        topology=first.topology,
        b=first.b,
        alpha=first.alpha,
        n_requests=first.n_requests,
        repetitions=len(runs),
        series=series,
        routing_cost_mean=float(final_routing.mean()),
        routing_cost_std=float(final_routing.std()),
        elapsed_seconds_mean=float(final_elapsed.mean()),
        elapsed_seconds_std=float(final_elapsed.std()),
        matched_fraction_mean=float(np.mean([r.matched_fraction for r in runs])),
    )
