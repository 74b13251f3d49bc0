"""Experiment configuration objects.

Configurations are immutable dataclasses with validation in
``__post_init__`` so that a mis-parameterised experiment fails at
construction time rather than deep inside a simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "MatchingConfig",
    "SimulationConfig",
    "SweepConfig",
]


@dataclass(frozen=True, slots=True)
class MatchingConfig:
    """Parameters of the online (b, a)-matching problem instance.

    Attributes
    ----------
    b:
        Maximum number of reconfigurable (matching) edges incident to any
        node for the online algorithm — the number of optical circuit
        switches in the datacenter.
    a:
        Degree bound of the offline optimum in the resource-augmented
        ``(b, a)`` setting.  Defaults to ``b`` (the classic setting).
    alpha:
        Reconfiguration cost per matching edge added or removed.
    solver_backend:
        Which static blossom kernel SO-BMA's iterated maximum-weight solve
        uses: ``"array"`` (the flat-array Galil kernel, the library
        default) or ``"nx"`` (the original NetworkX path, kept as
        reference).  Both produce identical matchings; ``None`` means the
        library default.  Only algorithms that run a static solve (SO-BMA)
        read this.
    """

    b: int
    alpha: float = 1.0
    a: Optional[int] = None
    solver_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ConfigurationError(f"b must be >= 1, got {self.b}")
        if self.alpha < 1:
            raise ConfigurationError(f"alpha must be >= 1, got {self.alpha}")
        a = self.b if self.a is None else self.a
        if not (1 <= a <= self.b):
            raise ConfigurationError(f"a must satisfy 1 <= a <= b={self.b}, got {a}")
        if self.solver_backend is not None:
            from .matching import SOLVER_BACKENDS  # local import: config loads first

            # Raises ConfigurationError with "did you mean ...?" suggestions.
            SOLVER_BACKENDS.resolve(self.solver_backend)

    @property
    def effective_a(self) -> int:
        """The offline degree bound, defaulting to ``b``."""
        return self.b if self.a is None else self.a

    def augmentation_ratio(self) -> float:
        """``b / (b - a + 1)`` — the argument of the logarithm in the bound."""
        return self.b / (self.b - self.effective_a + 1)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation."""
        d = asdict(self)
        d["a"] = self.effective_a
        return d


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Parameters controlling a single simulation run.

    Attributes
    ----------
    checkpoints:
        Number of evenly spaced points at which the cumulative routing cost
        and wall-clock time are recorded (the x-axis of the paper's plots).

        Contract: a run over ``n`` requests records exactly
        ``min(checkpoints, n)`` checkpoints at strictly increasing request
        counts, the last of which is always ``n``.  Traces shorter than
        ``checkpoints`` therefore yield one checkpoint per request; they are
        never silently collapsed below that.
    checkpoint_positions:
        Explicit checkpoint positions (1-based request counts), overriding
        the evenly spaced default — e.g. the output of
        :func:`~repro.simulation.engine.log_spaced_checkpoints` for figures
        with a logarithmic x-axis.  Must be strictly increasing and at least
        1; the engine additionally rejects positions beyond the trace
        length.  Positions may stop short of the trace end, in which case
        the remaining requests are still served but not recorded in the
        series (run totals always cover the whole trace).  When set,
        ``checkpoints`` is ignored.
    matching_backend:
        Which dynamic b-matching kernel the run uses: ``"fast"`` (the
        default array-backed kernel, served through the engine's batched
        replay path) or ``"reference"`` (the original set-of-tuples kernel,
        replayed request by request — the pre-optimization code path kept
        for differential testing and kernel benchmarks).  The engine
        rebinds a freshly constructed algorithm onto the requested backend
        before the first request; both backends produce bit-identical
        results.
    seed:
        Seed for the algorithm's internal randomness.  Trace generation has
        its own seed so that algorithm randomness and workload randomness
        can be varied independently.
    repetitions:
        Number of independent repetitions averaged by the runner (the paper
        averages five runs).
    collect_matching_history:
        If true, the engine records the matching after every reconfiguration
        (memory-heavy; used only by tests and small analyses).
    """

    checkpoints: int = 20
    matching_backend: str = "fast"
    seed: Optional[int] = None
    repetitions: int = 1
    collect_matching_history: bool = False
    checkpoint_positions: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.checkpoints < 1:
            raise ConfigurationError(f"checkpoints must be >= 1, got {self.checkpoints}")
        if self.repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.checkpoint_positions is not None:
            coerced = []
            for p in self.checkpoint_positions:
                # int(10.7) would silently truncate and could even break the
                # strictly-increasing contract after the fact; accept only
                # integral values (10 and 10.0 alike, as JSON round-trips
                # may deliver either).
                try:
                    as_int = int(p)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"checkpoint positions must be integers, got {p!r}"
                    ) from exc
                if as_int != p:
                    raise ConfigurationError(
                        f"checkpoint positions must be integers, got {p!r} "
                        "(refusing to silently truncate)"
                    )
                coerced.append(as_int)
            positions = tuple(coerced)
            if not positions:
                raise ConfigurationError(
                    "checkpoint_positions must be non-empty (or None for the "
                    "evenly spaced default)"
                )
            if positions[0] < 1:
                raise ConfigurationError(
                    f"checkpoint positions must be >= 1, got {positions[0]}"
                )
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise ConfigurationError(
                    f"checkpoint_positions must be strictly increasing, got {positions}"
                )
            object.__setattr__(self, "checkpoint_positions", positions)
        from .matching import MATCHING_BACKENDS  # local import: config loads first

        if self.matching_backend not in MATCHING_BACKENDS:
            raise ConfigurationError(
                f"unknown matching_backend {self.matching_backend!r} "
                f"(available: {', '.join(sorted(MATCHING_BACKENDS))})"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation."""
        data = asdict(self)
        if data["checkpoint_positions"] is not None:
            data["checkpoint_positions"] = list(data["checkpoint_positions"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(data) - {
            "checkpoints",
            "matching_backend",
            "seed",
            "repetitions",
            "collect_matching_history",
            "checkpoint_positions",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown SimulationConfig keys: {', '.join(sorted(unknown))}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class SweepConfig:
    """A cross-product parameter sweep over algorithm and problem settings.

    Attributes
    ----------
    b_values:
        Degree bounds to sweep over (e.g. ``(6, 12, 18)`` for the Facebook
        figures, ``(3, 6, 9)`` for the Microsoft figure).
    alpha_values:
        Reconfiguration costs to sweep over.
    algorithms:
        Names of algorithms (as registered in :mod:`repro.core.registry`).
    extra:
        Free-form per-sweep metadata propagated into results.
    """

    b_values: Sequence[int] = (6, 12, 18)
    alpha_values: Sequence[float] = (1.0,)
    algorithms: Sequence[str] = ("rbma", "bma", "oblivious")
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.b_values:
            raise ConfigurationError("b_values must be non-empty")
        if not self.alpha_values:
            raise ConfigurationError("alpha_values must be non-empty")
        if not self.algorithms:
            raise ConfigurationError("algorithms must be non-empty")
        if any(b < 1 for b in self.b_values):
            raise ConfigurationError(f"all b values must be >= 1, got {self.b_values}")
        if any(a < 1 for a in self.alpha_values):
            raise ConfigurationError(f"all alpha values must be >= 1, got {self.alpha_values}")

    def combinations(self) -> list[tuple[str, int, float]]:
        """All (algorithm, b, alpha) combinations in deterministic order."""
        return [
            (alg, b, alpha)
            for alg in self.algorithms
            for b in self.b_values
            for alpha in self.alpha_values
        ]
