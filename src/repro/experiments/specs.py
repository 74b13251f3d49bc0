"""Experiments as data: the :class:`ExperimentSpec` tree.

An :class:`ExperimentSpec` fully describes one experiment — topology, traffic,
algorithm, simulation parameters, and the repeat/seed policy — using only
names and plain values.  Specs therefore

* validate eagerly against the registries (an unknown algorithm name fails at
  construction, with a "did you mean ...?" hint, not deep inside a sweep);
* round-trip losslessly through ``to_dict`` / ``from_dict`` and JSON, so an
  experiment can live in a file, travel to a worker process, or be replayed
  from a saved :class:`~repro.simulation.results.RunResult`;
* build live objects on demand (``build_trace`` / ``build_topology`` /
  ``build_algorithm``);
* expand into cartesian sweep grids via :func:`expand_grid`.

Seeding follows NumPy's recommended practice: the spec's base ``seed`` is fed
to :class:`numpy.random.SeedSequence`, repetitions use *spawned* children
(:func:`spawn_seeds`) rather than hand-incremented offsets, and each
repetition spawns one sub-seed for trace generation and one for algorithm
randomness so the two streams stay decoupled but reproducible.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import MatchingConfig, SimulationConfig
from ..errors import ConfigurationError

__all__ = [
    "TopologySpec",
    "TrafficSpec",
    "AlgorithmSpec",
    "ExperimentSpec",
    "canonical_data",
    "expand_grid",
    "spawn_seeds",
]

PathLike = Union[str, Path]

#: Topologies whose constructors are not sized by ``n_racks`` (so the
#: trace-derived default must not be injected).
_SELF_SIZED_TOPOLOGIES = frozenset({"torus", "hypercube"})


# The registries live in the domain subpackages, which import
# ``repro.experiments.registry`` at import time; resolving them lazily here
# keeps the dependency one-directional at import time.
def _algorithm_registry():
    from ..core.registry import ALGORITHMS

    return ALGORITHMS


def _topology_registry():
    from ..topology.registry import TOPOLOGIES

    return TOPOLOGIES


def _workload_registry():
    from ..traffic.registry import WORKLOADS

    return WORKLOADS


def spawn_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` distinct, deterministic child seeds derived from ``base_seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn`, which guarantees
    statistically independent streams — unlike ``base_seed + 1000 * i``
    style arithmetic, which can collide across configurations.

    Examples
    --------
    >>> spawn_seeds(0, 3) == spawn_seeds(0, 3)
    True
    >>> len(set(spawn_seeds(0, 100)))
    100
    """
    if n < 1:
        raise ConfigurationError(f"cannot spawn {n} seeds; need n >= 1")
    root = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in root.spawn(n)]


def canonical_data(value: Any, _path: str = "spec") -> Any:
    """Reduce plain spec data to a canonical JSON-stable form.

    Two spec dicts that describe the same experiment must canonicalise to
    the same value, regardless of how they were produced:

    * mappings become dicts with **sorted** string keys (insertion order is
      an accident of construction, not part of the experiment);
    * tuples become lists (JSON has only arrays);
    * **integral floats become ints** (JSON round-trips may deliver ``10``
      as ``10.0``; ``alpha=15`` and ``alpha=15.0`` are the same experiment);
    * numpy scalars become their Python equivalents (a stray
      ``np.float64`` must not change the serialised text);
    * non-finite floats and non-JSON types are rejected eagerly with the
      offending path, instead of failing later inside ``json.dumps`` or —
      worse — fingerprinting as ``NaN != NaN``.

    This is the normal form behind :meth:`ExperimentSpec.canonical_dict`
    and the run-store fingerprint (:func:`repro.store.fingerprint_spec`).
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ConfigurationError(
                f"non-finite value {value!r} at {_path} cannot be canonicalised"
            )
        if value.is_integer():
            return int(value)
        return value
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"non-string key {key!r} at {_path} cannot be canonicalised"
                )
        return {
            key: canonical_data(value[key], f"{_path}.{key}") for key in sorted(value)
        }
    if isinstance(value, (list, tuple)):
        return [
            canonical_data(item, f"{_path}[{i}]") for i, item in enumerate(value)
        ]
    raise ConfigurationError(
        f"value of type {type(value).__name__} at {_path} is not JSON-stable "
        "(use plain ints, floats, strings, lists, and dicts in spec params)"
    )


def _check_keys(data: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} keys: {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


#: LRU cache of built topologies keyed by (name, sorted constructor kwargs).
#: Topologies are immutable by convention and their distance matrices are the
#: expensive part (a vectorised BFS per construction); sweeps and figure
#: panels re-request the same topology for every algorithm/backend
#: combination, so the matrix is computed once and shared.  Bounded so that
#: long-lived processes sweeping many distinct sizes cannot accumulate dense
#: O(n^2) matrices forever.
_TOPOLOGY_CACHE: "OrderedDict[tuple, Any]" = OrderedDict()
_TOPOLOGY_CACHE_MAX = 32


@dataclass(frozen=True)
class TopologySpec:
    """The fixed network, by registered name plus constructor parameters."""

    name: str = "fat-tree"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def validate(self) -> "TopologySpec":
        """Resolve the name against the topology registry (raises early)."""
        _topology_registry().resolve(self.name)
        return self

    def build(self, default_n_racks: Optional[int] = None):
        """Construct the topology; rack-sized families default to the trace size.

        Built topologies (and thus their cached distance matrices) are shared
        across calls with identical name and parameters; callers must treat
        them as read-only, which every algorithm in :mod:`repro.core` does.
        """
        kwargs = dict(self.params)
        if (
            default_n_racks is not None
            and "n_racks" not in kwargs
            and self.name.lower() not in _SELF_SIZED_TOPOLOGIES
        ):
            kwargs["n_racks"] = default_n_racks
        cache_key = (self.name.lower(), tuple(sorted(kwargs.items())))
        try:
            topology = _TOPOLOGY_CACHE.get(cache_key)
        except TypeError:  # unhashable constructor params: build uncached
            return _topology_registry().build(self.name, **kwargs)
        if topology is None:
            topology = _topology_registry().build(self.name, **kwargs)
            _TOPOLOGY_CACHE[cache_key] = topology
        else:
            _TOPOLOGY_CACHE.move_to_end(cache_key)
        while len(_TOPOLOGY_CACHE) > _TOPOLOGY_CACHE_MAX:
            _TOPOLOGY_CACHE.popitem(last=False)
        return topology

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "TopologySpec":
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, frozenset({"name", "params"}), "TopologySpec")
        return cls(name=data.get("name", "fat-tree"), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class TrafficSpec:
    """The workload, by registered name plus generator parameters.

    ``streaming`` asks executors to replay the workload as a lazy
    :class:`~repro.traffic.stream.TraceStream` of ``chunk_size``-request
    segments instead of materializing it.  Streaming is an *execution* knob,
    not part of the experiment identity: results are bit-identical either
    way, so the canonical form (and thus the run-store fingerprint) excludes
    both fields.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    streaming: bool = False
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if self.chunk_size is not None:
            size = int(self.chunk_size)
            if size != self.chunk_size or size < 1:
                raise ConfigurationError(
                    f"chunk_size must be a positive integer, got {self.chunk_size!r}"
                )
            object.__setattr__(self, "chunk_size", size)

    def validate(self) -> "TrafficSpec":
        """Resolve the name against the workload registry (raises early)."""
        _workload_registry().resolve(self.name)
        return self

    def workload_key(self) -> Optional[Tuple[str, str]]:
        """The workload's identity: lower-cased name plus params JSON.

        Specs with equal keys generate the same requests from the same seed;
        the streaming knobs are not part of it.  ``None`` when the params
        are not JSON, since those cannot be compared reliably.
        """
        try:
            params = json.dumps(dict(self.params), sort_keys=True)
        except (TypeError, ValueError):
            return None
        return (self.name.strip().lower(), params)

    def build(self, seed: Optional[int] = None):
        """Generate the trace: :meth:`build_stream` materialized."""
        return self.build_stream(seed).materialize()

    def build_stream(self, seed: Optional[int] = None):
        """The workload as a lazy :class:`~repro.traffic.stream.TraceStream`.

        ``seed`` fills in unless ``params`` pins one.  The requests do not
        depend on ``chunk_size``; ``facebook-hadoop`` is generated whole and
        sliced, every other workload is generated chunk by chunk.
        """
        kwargs = dict(self.params)
        kwargs.setdefault("seed", seed)
        return _workload_registry().build(
            self.name, chunk_size=self.chunk_size, **kwargs
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "params": dict(self.params)}
        # Emitted only when non-default so pre-streaming spec JSON (and the
        # specs' round-trip tests) are byte-for-byte unchanged.
        if self.streaming:
            data["streaming"] = True
        if self.chunk_size is not None:
            data["chunk_size"] = self.chunk_size
        return data

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "TrafficSpec":
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(
            data, frozenset({"name", "params", "streaming", "chunk_size"}), "TrafficSpec"
        )
        if "name" not in data:
            raise ConfigurationError("TrafficSpec requires a workload 'name'")
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            streaming=bool(data.get("streaming", False)),
            chunk_size=data.get("chunk_size"),
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    """The online algorithm, by registered name plus matching parameters.

    ``solver_backend`` selects the static blossom kernel for algorithms that
    run an offline solve (SO-BMA); ``None`` means the library default.  It
    round-trips through spec JSON and is validated against
    :data:`repro.matching.SOLVER_BACKENDS` (typos get suggestions).
    """

    name: str
    b: int = 12
    alpha: float = 1.0
    a: Optional[int] = None
    solver_backend: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def matching_config(self) -> MatchingConfig:
        """The (validating) :class:`~repro.config.MatchingConfig` this spec encodes."""
        return MatchingConfig(
            b=self.b,
            alpha=self.alpha,
            a=self.a,
            solver_backend=self.solver_backend,
        )

    def validate(self) -> "AlgorithmSpec":
        """Resolve the name and validate the matching parameters (raises early)."""
        _algorithm_registry().resolve(self.name)
        self.matching_config()
        return self

    def build(self, topology, rng: Optional[Union[int, np.random.Generator]] = None):
        """Instantiate the algorithm on ``topology``."""
        return _algorithm_registry().build(
            self.name, topology, self.matching_config(), rng, **dict(self.params)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "b": self.b,
            "alpha": self.alpha,
            "a": self.a,
            "solver_backend": self.solver_backend,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlgorithmSpec":
        _check_keys(
            data,
            frozenset({"name", "b", "alpha", "a", "solver_backend", "params"}),
            "AlgorithmSpec",
        )
        if "name" not in data:
            raise ConfigurationError("AlgorithmSpec requires an algorithm 'name'")
        return cls(
            name=data["name"],
            b=int(data.get("b", 12)),
            alpha=float(data.get("alpha", 1.0)),
            a=None if data.get("a") is None else int(data["a"]),
            solver_backend=data.get("solver_backend"),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment as plain data.

    Attributes
    ----------
    algorithm, traffic, topology:
        The sub-specs (plain dicts and name strings are coerced).
    simulation:
        Engine parameters (checkpoints, matching-history collection).
    repeats:
        Number of independent repetitions; seeds are spawned from ``seed``.
    seed:
        Base seed of the whole experiment.  ``None`` means fresh entropy
        (irreproducible) — allowed but discouraged.
    name:
        Optional human label, used as the result label when set.

    Examples
    --------
    >>> spec = ExperimentSpec(
    ...     algorithm={"name": "rbma", "b": 2, "alpha": 4},
    ...     traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 50}},
    ... )
    >>> ExperimentSpec.from_dict(spec.to_dict()) == spec
    True
    """

    algorithm: AlgorithmSpec
    traffic: TrafficSpec
    topology: TopologySpec = field(default_factory=TopologySpec)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    repeats: int = 1
    seed: Optional[int] = 0
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.algorithm, Mapping):
            object.__setattr__(self, "algorithm", AlgorithmSpec.from_dict(self.algorithm))
        elif isinstance(self.algorithm, str):
            object.__setattr__(self, "algorithm", AlgorithmSpec(name=self.algorithm))
        if isinstance(self.traffic, (Mapping, str)):
            object.__setattr__(self, "traffic", TrafficSpec.from_dict(self.traffic))
        if isinstance(self.topology, (Mapping, str)):
            object.__setattr__(self, "topology", TopologySpec.from_dict(self.topology))
        if isinstance(self.simulation, Mapping):
            object.__setattr__(self, "simulation", SimulationConfig.from_dict(self.simulation))
        if self.simulation.repetitions != 1 or self.simulation.seed is not None:
            raise ConfigurationError(
                "the repeat/seed policy lives on the spec itself: set "
                "ExperimentSpec 'repeats' and 'seed', not "
                "SimulationConfig.repetitions/seed (which would be ignored)"
            )
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")

    # -- validation ------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Eagerly check every name and parameter against the registries."""
        self.algorithm.validate()
        self.traffic.validate()
        self.topology.validate()
        return self

    @property
    def label(self) -> str:
        """Human label: the explicit ``name``, else ``"<algorithm> (b: <b>)"``."""
        return self.name or f"{self.algorithm.name} (b: {self.algorithm.b})"

    # -- seeding ---------------------------------------------------------

    def repetition_seeds(self) -> List[Optional[int]]:
        """The per-repetition seeds (all ``None`` if ``seed`` is).

        A single repetition runs under the base seed itself, so
        :meth:`run` with ``repeats=1`` and :meth:`execute` produce the same
        result; multiple repetitions use distinct children spawned from the
        base seed via :class:`numpy.random.SeedSequence`.
        """
        if self.seed is None:
            return [None] * self.repeats
        if self.repeats == 1:
            return [self.seed]
        return spawn_seeds(self.seed, self.repeats)

    def run_seeds(self) -> Tuple[Optional[int], Optional[int]]:
        """The (trace, algorithm) seed pair for a single run of this spec."""
        if self.seed is None:
            return None, None
        trace_seed, algo_seed = spawn_seeds(self.seed, 2)
        return trace_seed, algo_seed

    def with_seed(self, seed: Optional[int], repeats: int = 1) -> "ExperimentSpec":
        """The same experiment re-seeded (used to expand repetitions)."""
        return replace(self, seed=seed, repeats=repeats)

    # -- building --------------------------------------------------------

    def build_trace(self, trace_seed: Optional[int] = None):
        """Generate this experiment's workload (seed defaults to the spawned one)."""
        if trace_seed is None and self.seed is not None:
            trace_seed = self.run_seeds()[0]
        return self.traffic.build(seed=trace_seed)

    def build_stream(self, trace_seed: Optional[int] = None):
        """This experiment's workload as a lazy trace stream (same seeding)."""
        if trace_seed is None and self.seed is not None:
            trace_seed = self.run_seeds()[0]
        return self.traffic.build_stream(seed=trace_seed)

    def with_streaming(
        self, streaming: bool = True, chunk_size: Optional[int] = None
    ) -> "ExperimentSpec":
        """The same experiment with the streaming execution knob flipped.

        Streaming does not change the result (replay is bit-identical) nor
        the run-store fingerprint — see :meth:`canonical_dict`.
        """
        return replace(
            self,
            traffic=replace(self.traffic, streaming=streaming, chunk_size=chunk_size),
        )

    def build_topology(self, trace):
        """Construct the topology, sized to the trace unless pinned."""
        return self.topology.build(default_n_racks=trace.n_nodes)

    def build_algorithm(self, topology, algo_seed: Optional[int] = None):
        """Instantiate the algorithm (seed defaults to the spawned one)."""
        if algo_seed is None and self.seed is not None:
            algo_seed = self.run_seeds()[1]
        return self.algorithm.build(topology, rng=algo_seed)

    # -- execution (delegates to repro.simulation) -----------------------

    def execute(self, trace=None, observers=(), validate: bool = False):
        """Run a single repetition; returns a :class:`~repro.simulation.results.RunResult`.

        See :func:`~repro.simulation.runner.execute_experiment_spec`: without
        a ``trace`` this is a one-spec plan on the serial backend.
        """
        from ..simulation.runner import execute_experiment_spec

        return execute_experiment_spec(self, trace=trace, observers=observers, validate=validate)

    def run(self, n_workers: int = 1, observers=()):
        """Run all ``repeats`` repetitions and aggregate; returns an
        :class:`~repro.simulation.results.AggregateResult`."""
        from ..simulation.sweep import run_experiments

        return run_experiments([self], n_workers=n_workers, observers=observers)[0]

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "algorithm": self.algorithm.to_dict(),
            "traffic": self.traffic.to_dict(),
            "topology": self.topology.to_dict(),
            # repetitions/seed are spec-level policy, not engine parameters.
            "simulation": {
                "checkpoints": self.simulation.checkpoints,
                "matching_backend": self.simulation.matching_backend,
                "collect_matching_history": self.simulation.collect_matching_history,
                "checkpoint_positions": (
                    None
                    if self.simulation.checkpoint_positions is None
                    else list(self.simulation.checkpoint_positions)
                ),
            },
            "repeats": self.repeats,
            "seed": self.seed,
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec as canonical plain data (see :func:`canonical_data`).

        Unlike :meth:`to_dict` — which preserves construction order and
        float-ness for readable JSON files — the canonical form is a pure
        function of the experiment itself: keys are sorted at every level,
        integral floats are ints, and numpy scalars are unwrapped.  Two
        specs describing the same experiment (however their dicts were
        keyed or their numbers typed) canonicalise identically, which is
        what the run-store fingerprint hashes.

        The traffic ``streaming``/``chunk_size`` execution knobs are
        stripped: streamed replay is bit-identical to materialized replay,
        so both must hash to the same store cell.
        """
        data = self.to_dict()
        traffic = dict(data["traffic"])
        traffic.pop("streaming", None)
        traffic.pop("chunk_size", None)
        data["traffic"] = traffic
        return canonical_data(data)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], validate: bool = True) -> "ExperimentSpec":
        """Build a spec from its plain-dict form, validating eagerly by default."""
        _check_keys(
            data,
            frozenset(
                {"name", "algorithm", "traffic", "topology", "simulation", "repeats", "seed"}
            ),
            "ExperimentSpec",
        )
        for required in ("algorithm", "traffic"):
            if required not in data:
                raise ConfigurationError(f"ExperimentSpec requires {required!r}")
        simulation = data.get("simulation", {})
        if isinstance(simulation, Mapping):
            simulation = SimulationConfig.from_dict(simulation)
        spec = cls(
            algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
            traffic=TrafficSpec.from_dict(data["traffic"]),
            topology=TopologySpec.from_dict(data.get("topology", {})),
            simulation=simulation,
            repeats=int(data.get("repeats", 1)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            name=data.get("name"),
        )
        return spec.validate() if validate else spec

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "ExperimentSpec":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"spec JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data, validate=validate)

    def save_json(self, path: PathLike) -> None:
        """Write the spec to a JSON file (loadable by ``repro run``)."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load_json(cls, path: PathLike, validate: bool = True) -> "ExperimentSpec":
        """Load a spec written by :meth:`save_json`."""
        return cls.from_json(Path(path).read_text(), validate=validate)

    # -- sweep expansion -------------------------------------------------

    def expand(self, grid: Mapping[str, Sequence[Any]]) -> List["ExperimentSpec"]:
        """Cartesian expansion over dotted spec fields (see :func:`expand_grid`)."""
        return expand_grid(self, grid)


def _assign(obj: Any, dotted: str, value: Any) -> Any:
    """Return a copy of ``obj`` with the dotted field replaced by ``value``."""
    head, _, rest = dotted.partition(".")
    if is_dataclass(obj) and not isinstance(obj, type):
        valid = {f.name for f in fields(obj)}
        if head not in valid:
            raise ConfigurationError(
                f"unknown spec field {head!r} in grid key {dotted!r} "
                f"(valid: {', '.join(sorted(valid))})"
            )
        if not rest:
            return replace(obj, **{head: value})
        return replace(obj, **{head: _assign(getattr(obj, head), rest, value)})
    if isinstance(obj, Mapping):
        updated = dict(obj)
        if not rest:
            updated[head] = value
        else:
            updated[head] = _assign(updated.get(head, {}), rest, value)
        return updated
    raise ConfigurationError(f"cannot descend into {type(obj).__name__} at {dotted!r}")


def expand_grid(
    base: ExperimentSpec, grid: Mapping[str, Sequence[Any]]
) -> List[ExperimentSpec]:
    """Expand ``base`` over the cartesian product of ``grid``.

    Keys are dotted paths into the spec tree (``"algorithm.b"``,
    ``"traffic.name"``, ``"topology.params.n_racks"``, ``"seed"``, ...); each
    maps to the sequence of values to sweep.  Later keys vary fastest, so
    ``{"algorithm.name": [...], "algorithm.b": [...]}`` reproduces the
    classic per-algorithm-then-per-b sweep order.  A custom ``name`` on the
    base spec is dropped from the expanded specs (their labels derive from
    the swept fields) unless the grid assigns ``"name"`` explicitly.

    Examples
    --------
    >>> base = ExperimentSpec(algorithm={"name": "rbma", "b": 2},
    ...                       traffic={"name": "zipf"})
    >>> specs = expand_grid(base, {"algorithm.b": [2, 4, 8]})
    >>> [s.algorithm.b for s in specs]
    [2, 4, 8]
    """
    if not grid:
        return [base]
    keys = list(grid)
    if "name" not in keys and base.name is not None:
        base = replace(base, name=None)
    for key, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ConfigurationError(
                f"grid values for {key!r} must be a sequence, got {type(values).__name__}"
            )
        if len(values) == 0:
            raise ConfigurationError(f"grid values for {key!r} must be non-empty")
    specs: List[ExperimentSpec] = []
    for combination in itertools.product(*(grid[key] for key in keys)):
        spec = base
        for key, value in zip(keys, combination):
            spec = _assign(spec, key, value)
        specs.append(spec.validate())
    return specs
