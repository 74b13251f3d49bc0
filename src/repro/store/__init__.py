"""Persistent run store: a content-addressed repository of experiment results.

Every execution entry point in :mod:`repro.simulation` can consult a
:class:`RunStore` before computing and write back after, keyed by
:func:`fingerprint_spec` — a canonical blake2b digest of the seeded
:class:`~repro.experiments.specs.ExperimentSpec` plus the schema version and
the effective kernel provenance.  Repeated figure grids and ablation
matrices then become *incremental*: unchanged (spec, seed) cells are served
from disk, bit-identical to the cold run that produced them, and only dirty
cells recompute.

Layers (bottom up):

* :mod:`~repro.store.fingerprint` — the canonical spec fingerprint and its
  invariance contract (key order, float int-ness, schema version, backend
  provenance).
* :mod:`~repro.store.run_store` — the file-backed store itself: atomic
  sharded ``runs/<fp[:2]>/<fp>.json`` writes (the shard tree is its only
  state), ``put``/``get``/``contains``/``list_runs``/``delete``/``gc``, and the
  ``REPRO_RUN_STORE`` environment default.
* :mod:`~repro.store.statistics` — cross-run statistics: per-fingerprint
  recomputation history (runtime CIs, determinism and runtime regression
  flags) and cross-seed configuration spreads.

The store has one lookup path and one write path, both in :mod:`repro.exec`:
the planner (:func:`~repro.exec.plan.build_execution_plan`) looks cells up
before dispatch and the results plane writes computed cells back.  Every
``store=`` keyword (on
:func:`~repro.simulation.runner.execute_experiment_spec`,
:class:`~repro.simulation.runner.ExperimentRunner`,
:func:`~repro.simulation.sweep.run_experiments`, and
:func:`~repro.exec.scheduler.run_specs_parallel`) reaches them through
``run_specs_parallel``; the CLI surface is ``repro runs list|show|stats|gc``
plus ``--store``/``--no-store`` on the simulation commands.
"""

from .fingerprint import (
    SCHEMA_VERSION,
    canonical_json,
    effective_kernels,
    fingerprint_spec,
)
from .run_store import (
    ENV_RUN_STORE,
    RunEntry,
    RunStore,
    StoreConfig,
    default_store,
    resolve_store,
)
from .transfer import export_store, import_store
from .statistics import (
    GroupStats,
    SampleStats,
    SpecHistory,
    bootstrap_ci,
    group_statistics,
    sample_statistics,
    spec_statistics,
    store_statistics,
)

__all__ = [
    # fingerprint
    "SCHEMA_VERSION",
    "canonical_json",
    "effective_kernels",
    "fingerprint_spec",
    # store
    "ENV_RUN_STORE",
    "StoreConfig",
    "RunEntry",
    "RunStore",
    "default_store",
    "resolve_store",
    # transfer
    "export_store",
    "import_store",
    # statistics
    "SampleStats",
    "SpecHistory",
    "GroupStats",
    "bootstrap_ci",
    "sample_statistics",
    "spec_statistics",
    "store_statistics",
    "group_statistics",
]
