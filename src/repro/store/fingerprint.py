"""Canonical experiment fingerprints.

The run store is content-addressed: one :class:`~repro.experiments.specs.ExperimentSpec`
plus its seed maps to one :func:`fingerprint_spec` digest, and that digest is
the storage key.  The fingerprint contract:

* **Canonical form, not construction form.**  The digest hashes
  :meth:`ExperimentSpec.canonical_dict` — sort-keyed at every level, with
  integral floats reduced to ints — so dict key order and ``10`` vs ``10.0``
  checkpoint positions cannot produce distinct fingerprints for the same
  experiment.
* **Only result-determining fields.**  ``name`` (a display label) and
  ``repeats`` (an expansion count; a fingerprint addresses exactly one
  seeded run) are excluded.  Everything else — algorithm, parameters,
  traffic, topology, simulation settings, and the seed — participates, so
  changing any of them changes the key.
* **Schema-versioned.**  ``schema_version`` is hashed along with the spec;
  bumping :data:`SCHEMA_VERSION` (when result semantics change
  incompatibly) invalidates every existing entry by construction, no
  migration pass needed.
* **Backend provenance.**  The digest records the kernels a run executes
  (:func:`effective_kernels`): the matching backend and, for SO-BMA, the
  static solver backend.  Results are bit-identical across backends by
  design, but wall-clock provenance is not, so the store keeps the runs
  distinguishable.

Fingerprints are hex blake2b digests (160 bits), stable across processes,
platforms, and Python versions for a given :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Union

from ..errors import ConfigurationError
from ..experiments.specs import ExperimentSpec, canonical_data
from ..matching.static_solver import resolve_solver_backend

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "effective_kernels",
    "fingerprint_spec",
]

#: Version of the (spec canonicalisation, result serialisation) contract.
#: Bump whenever stored results become incompatible with freshly computed
#: ones; every existing fingerprint then misses and re-runs populate the
#: store under the new keys.  Version 2: randomized algorithms always draw
#: counter-mode randomness, so a schema-1 entry (possibly computed with the
#: retired stateful generator) must never be served.
SCHEMA_VERSION = 2

#: Hex digest length = 2 * digest_size; 20 bytes keeps paths short while
#: making collisions (2^-80 birthday bound at billions of runs) a non-issue.
_DIGEST_SIZE = 20


def canonical_json(data: Any) -> str:
    """The canonical JSON text of plain spec data (sorted keys, no spaces).

    Canonicalisation (see :func:`repro.experiments.specs.canonical_data`)
    happens first, so permuted dicts and integral floats serialise to the
    same bytes; ``allow_nan=False`` guards against anything non-finite
    slipping through.
    """
    return json.dumps(
        canonical_data(data), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def effective_kernels(spec: ExperimentSpec) -> Dict[str, str]:
    """The kernels a run of ``spec`` executes.

    SO-BMA's solver backend resolves through
    :func:`repro.matching.static_solver.resolve_solver_backend` (the
    ``"greedy"`` solver bypasses the blossom tier entirely).  Algorithms
    without a static solve carry no solver key, so flipping the solver
    default cannot invalidate, say, cached RBMA runs.
    """
    backend = spec.simulation.matching_backend
    kernels = {"matching_backend": backend, "matching_kernel": backend}

    from ..core.registry import ALGORITHMS  # local: registries load late

    factory = ALGORITHMS.resolve(spec.algorithm.name)
    if getattr(factory, "requires_full_trace", False):
        if spec.algorithm.params.get("solver") == "greedy":
            kernels["solver_kernel"] = "greedy"
        else:
            kernels["solver_kernel"] = resolve_solver_backend(
                spec.algorithm.solver_backend
            )
    return kernels


def fingerprint_spec(
    spec: Union[ExperimentSpec, Mapping[str, Any]],
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """The content-address of one seeded run of ``spec``.

    Accepts a structured spec or its plain-dict form (as stored in
    ``RunResult.spec``).  Raises :class:`~repro.errors.ConfigurationError`
    for unseeded specs: a run without a seed is irreproducible, so it has
    no stable content to address.
    """
    if isinstance(spec, Mapping):
        spec = ExperimentSpec.from_dict(spec, validate=False)
    if spec.seed is None:
        raise ConfigurationError(
            "cannot fingerprint an unseeded spec: with seed=None every run "
            "draws fresh entropy, so there is no stable result to address"
        )
    data = spec.canonical_dict()
    # Display label and expansion count do not affect the computed result.
    data.pop("name", None)
    data.pop("repeats", None)
    payload = {
        "schema_version": schema_version,
        "kernels": effective_kernels(spec),
        "spec": data,
    }
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=_DIGEST_SIZE
    ).hexdigest()
