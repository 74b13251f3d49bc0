"""Persistent run store: fingerprints, cache semantics, statistics, CLI.

The contract under test (see :mod:`repro.store`):

* :func:`fingerprint_spec` is a pure function of the *experiment* — dict key
  order, ``10`` vs ``10.0``, and numpy scalar-ness cannot change it; the
  seed, every parameter, the schema version, and the effective kernels can.
* A store hit is **bit-identical** to the cold run that produced it, for
  every registered algorithm, on both the in-process and
  :func:`run_specs_parallel` execution paths — and a fully warm grid
  performs zero simulation work (asserted by making simulation impossible).
* ``repro runs list|show|stats|gc`` work end-to-end on a populated store.
"""

import json
import os
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.registry import ALGORITHMS
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ExperimentSpec, canonical_data
from repro.exec import scheduler as scheduler_mod
from repro.exec.scheduler import run_specs_parallel
from repro.ioutil import atomic_write_json
from repro.simulation import runner as runner_mod
from repro.simulation.results import AggregateResult, RunResult, aggregate_runs
from repro.simulation.runner import ExperimentRunner, execute_experiment_spec
from repro.simulation.sweep import run_experiments
from repro.store import (
    SCHEMA_VERSION,
    RunStore,
    StoreConfig,
    bootstrap_ci,
    default_store,
    fingerprint_spec,
    group_statistics,
    resolve_store,
    sample_statistics,
    spec_statistics,
    store_statistics,
)
from repro.obs import reset, snapshot
from repro.store.run_store import entry_checksum
from repro.store.transfer import export_store, import_store

pytestmark = pytest.mark.store

SEED = 20230


def _store_count(name):
    """This process's total of ``store.<name>`` in this test."""
    return snapshot("store.").get(f"store.{name}", 0)


def _spec(**overrides) -> ExperimentSpec:
    """A tiny seeded zipf experiment, overridable per test."""
    base = {
        "algorithm": {"name": "rbma", "b": 2, "alpha": 4},
        "traffic": {"name": "zipf",
                    "params": {"n_nodes": 10, "n_requests": 120, "exponent": 1.3}},
        "simulation": {"checkpoints": 4},
        "seed": SEED,
    }
    base.update(overrides)
    return ExperimentSpec(**base)


def _assert_identical(a: RunResult, b: RunResult) -> None:
    assert a.to_dict() == b.to_dict()


def _permuted(data):
    """The same plain data with every dict's key order reversed."""
    if isinstance(data, dict):
        return {k: _permuted(data[k]) for k in reversed(list(data))}
    if isinstance(data, list):
        return [_permuted(item) for item in data]
    return data


def _file_snapshot(root):
    """``{relative path: (size, mtime_ns)}`` of every file under ``root``."""
    return {
        p.relative_to(root): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*")
        if p.is_file()
    }


def _forbid_simulation(monkeypatch, message="simulation ran on a warm store"):
    """Make any actual simulation work raise, in every execution layer."""
    def _boom(*_args, **_kwargs):
        raise AssertionError(message)
    monkeypatch.setattr(runner_mod, "run_simulation", _boom)
    monkeypatch.setattr(ExperimentSpec, "build_trace", _boom)


# ---------------------------------------------------------------------------
# canonical_data / canonical_dict
# ---------------------------------------------------------------------------

class TestCanonicalData:
    def test_sorts_keys_recursively(self):
        out = canonical_data({"b": {"z": 1, "a": 2}, "a": 3})
        assert list(out) == ["a", "b"]
        assert list(out["b"]) == ["a", "z"]

    def test_integral_floats_become_ints(self):
        assert canonical_data(10.0) == 10
        assert isinstance(canonical_data(10.0), int)
        assert canonical_data(10.5) == 10.5

    def test_bools_survive(self):
        assert canonical_data(True) is True
        assert canonical_data(False) is False

    def test_numpy_scalars_unwrap(self):
        assert canonical_data(np.float64(15.0)) == 15
        assert isinstance(canonical_data(np.float64(15.0)), int)
        assert canonical_data(np.int64(7)) == 7
        assert canonical_data(np.float64(1.5)) == 1.5

    def test_tuples_become_lists(self):
        assert canonical_data((1, 2.0, "x")) == [1, 2, "x"]

    def test_non_finite_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match=r"spec\.a\[1\]"):
            canonical_data({"a": [1.0, float("nan")]})
        with pytest.raises(ConfigurationError):
            canonical_data(float("inf"))

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="non-string key"):
            canonical_data({1: "x"})

    def test_unsupported_types_rejected(self):
        with pytest.raises(ConfigurationError, match="not JSON-stable"):
            canonical_data({"a": object()})

    def test_canonical_dict_is_sorted_and_equal_under_permutation(self):
        spec = _spec()
        canon = spec.canonical_dict()
        assert list(canon) == sorted(canon)
        assert canonical_data(_permuted(spec.to_dict())) == canon


# ---------------------------------------------------------------------------
# fingerprint_spec
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_is_stable_hex(self):
        fp = fingerprint_spec(_spec())
        assert fp == fingerprint_spec(_spec())
        assert len(fp) == 40
        assert set(fp) <= set("0123456789abcdef")

    def test_key_order_invariance(self):
        data = _spec().to_dict()
        assert fingerprint_spec(data) == fingerprint_spec(_permuted(data))

    def test_float_intness_invariance(self):
        data_int = _spec().to_dict()
        data_float = json.loads(json.dumps(data_int))
        data_float["algorithm"]["alpha"] = float(data_int["algorithm"]["alpha"])
        data_float["algorithm"]["b"] = float(data_int["algorithm"]["b"])
        assert fingerprint_spec(data_int) == fingerprint_spec(data_float)

    def test_checkpoint_position_intness_invariance(self):
        ints = _spec(simulation={"checkpoints": 4,
                                 "checkpoint_positions": [30, 60, 90, 120]}).to_dict()
        floats = json.loads(json.dumps(ints))
        floats["simulation"]["checkpoint_positions"] = [30.0, 60.0, 90.0, 120.0]
        assert fingerprint_spec(ints) == fingerprint_spec(floats)

    def test_seed_sensitivity(self):
        assert fingerprint_spec(_spec(seed=1)) != fingerprint_spec(_spec(seed=2))

    def test_parameter_sensitivity(self):
        base = fingerprint_spec(_spec())
        assert fingerprint_spec(
            _spec(algorithm={"name": "rbma", "b": 3, "alpha": 4})) != base
        assert fingerprint_spec(
            _spec(algorithm={"name": "greedy", "b": 2, "alpha": 4})) != base

    def test_name_and_repeats_excluded(self):
        base = fingerprint_spec(_spec())
        assert fingerprint_spec(_spec(name="pretty label")) == base
        assert fingerprint_spec(_spec(repeats=5)) == base

    def test_schema_version_bump_changes_fingerprint(self):
        spec = _spec()
        assert fingerprint_spec(spec) != fingerprint_spec(
            spec, schema_version=SCHEMA_VERSION + 1)

    def test_unseeded_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unseeded"):
            fingerprint_spec(_spec(seed=None))

    def test_legacy_schema1_rbma_entry_is_not_served(self, tmp_path):
        """An entry stored under the schema-1 fingerprint of an rbma spec
        (kernels without ``rng_kernel``, as written before randomized
        algorithms drew counter-mode randomness) must miss: its result may
        come from the retired stateful generator."""
        import hashlib

        from repro.store.fingerprint import canonical_json

        spec = _spec()
        data = spec.canonical_dict()
        data.pop("name", None)
        data.pop("repeats", None)
        legacy_payload = {
            "schema_version": 1,
            "kernels": {"matching_backend": "fast", "matching_kernel": "fast"},
            "spec": data,
        }
        legacy_fp = hashlib.blake2b(
            canonical_json(legacy_payload).encode("utf-8"), digest_size=20
        ).hexdigest()
        # Only the schema bump separates the two keys.
        assert fingerprint_spec(spec, schema_version=1) == legacy_fp
        assert fingerprint_spec(spec) != legacy_fp

        cold = execute_experiment_spec(spec, store=False)
        store = RunStore(tmp_path)
        store.put(replace(cold, total_routing_cost=-1.0), fingerprint=legacy_fp)
        served = execute_experiment_spec(spec, store=store)
        assert served.total_routing_cost == cold.total_routing_cost
        assert _store_count("hits") == 0

    def test_solver_kernel_only_covers_static_algorithms(self, monkeypatch):
        """Flipping the effective solver kernel re-keys SO-BMA runs but
        cannot invalidate cached runs of online algorithms."""
        import repro.store.fingerprint as fp_mod

        sobma = _spec(algorithm={"name": "so-bma", "b": 2, "alpha": 4})
        rbma = _spec()
        monkeypatch.setattr(fp_mod, "resolve_solver_backend", lambda _req: "array")
        sobma_array, rbma_array = fingerprint_spec(sobma), fingerprint_spec(rbma)
        monkeypatch.setattr(fp_mod, "resolve_solver_backend", lambda _req: "nx")
        assert fingerprint_spec(sobma) != sobma_array
        assert fingerprint_spec(rbma) == rbma_array


# ---------------------------------------------------------------------------
# RunStore CRUD, layout, durability
# ---------------------------------------------------------------------------

class TestRunStore:
    def test_put_get_roundtrip_and_sharded_layout(self, tmp_path):
        store = RunStore(tmp_path / "store")
        result = _spec().execute()
        fp = store.put(result)
        assert fp == fingerprint_spec(_spec())
        entry_file = tmp_path / "store" / "runs" / fp[:2] / f"{fp}.json"
        assert entry_file.exists()
        assert store.contains(fp) and fp in store and len(store) == 1
        _assert_identical(store.get(fp), result)
        # spec refs resolve through the same key
        assert store.contains(_spec())
        _assert_identical(store.get(_spec().to_dict()), result)

    def test_get_miss_returns_none_and_counts(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get("ab" * 20) is None
        assert snapshot("store.") == {"store.misses": 1}

    def test_put_without_provenance_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        bare = replace(_spec().execute(), spec=None)
        with pytest.raises(ConfigurationError, match="provenance"):
            store.put(bare)
        # an explicit fingerprint substitutes for the missing spec
        fp = store.put(bare, fingerprint="ab" * 20)
        assert store.contains(fp)

    def test_reput_appends_history_and_preserves_written_at(self, tmp_path):
        store = RunStore(tmp_path)
        result = _spec().execute()
        fp = store.put(result)
        first = store.get_payload(fp)
        store.put(result)
        payload = store.get_payload(fp)
        assert len(payload["history"]) == 2
        assert payload["written_at"] == first["written_at"]
        assert store.list_runs()[0].runs == 2

    def test_delete(self, tmp_path):
        store = RunStore(tmp_path)
        fp = store.put(_spec().execute())
        assert store.delete(fp) is True
        assert not store.contains(fp) and len(store) == 0
        assert store.delete(fp) is False

    def test_list_runs_newest_first_and_find(self, tmp_path):
        store = RunStore(tmp_path)
        fps = [store.put(_spec(seed=s).execute()) for s in (1, 2, 3)]
        listed = [e.fingerprint for e in store.list_runs()]
        assert sorted(listed) == sorted(fps)
        # same-second writes tie-break by fingerprint, descending
        assert listed == sorted(listed, key=lambda f: (store.get_payload(f)["written_at"], f), reverse=True)
        assert [e.fingerprint for e in store.find(fps[0][:12])] == [fps[0]]
        assert store.find("nonexistent") == []

    def test_put_of_a_new_fingerprint_is_one_rename_onto_a_fresh_name(
        self, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path)
        result = _spec().execute()
        for k in range(5):
            store.put(result, fingerprint=f"{k:02x}" * 20)
        before = _file_snapshot(tmp_path)
        renames = []
        real_replace = os.replace

        def recording_replace(src, dst):
            renames.append((Path(dst), Path(dst).exists()))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        fp = store.put(result, fingerprint="ff" * 20)
        [(destination, existed)] = renames
        assert destination == store.entry_path(fp) and not existed
        after = _file_snapshot(tmp_path)
        # One new file, the entry itself; nothing else created or changed,
        # in runs/ or outside it.
        assert set(after) - set(before) == {destination.relative_to(tmp_path)}
        assert {k: after[k] for k in before} == before

    def test_corrupt_entry_file_quarantines_as_a_miss(self, tmp_path):
        result = _spec().execute()
        # A torn file, and a sealed entry naming another fingerprint than
        # its file: neither is listed, and get quarantines both.
        for damage, text, reason in (
            ("torn", "{ torn", "invalid JSON"),
            ("misnamed", None, "fingerprint field"),
        ):
            store = RunStore(tmp_path / damage)
            fp = store.put(result)
            if text is None:
                payload = json.loads(store.entry_path(fp).read_text())
                payload["fingerprint"] = "ab" * 20
                payload["checksum"] = entry_checksum(payload)
                text = json.dumps(payload)
            store.entry_path(fp).write_text(text)
            assert store.list_runs() == [] and len(store) == 0
            quarantined = _store_count("quarantined")
            with pytest.warns(RuntimeWarning, match=f"corrupt \\({reason}"):
                assert store.get_payload(fp) is None
            # The file moved aside rather than poisoning every later read.
            assert not store.entry_path(fp).exists()
            assert (store.quarantine_dir / f"{fp}.json").exists()
            assert _store_count("quarantined") == quarantined + 1
            # The entry can be recomputed and stored again afterwards.
            assert store.put(result) == fp
            assert store.get_payload(fp) is not None
            assert [e.fingerprint for e in store.list_runs()] == [fp]

    def test_malformed_fingerprint_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ConfigurationError, match="malformed fingerprint"):
            store.entry_path("../escape")
        with pytest.raises(ConfigurationError):
            store.entry_path("")

    def test_shard_width_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="shard_width"):
            StoreConfig(root=tmp_path, shard_width=0)
        store = RunStore(StoreConfig(root=tmp_path, shard_width=4))
        fp = store.put(_spec().execute())
        assert store.entry_path(fp).parent.name == fp[:4]

    def test_gc_by_age_count_and_dry_run(self, tmp_path):
        from datetime import datetime, timedelta, timezone

        store = RunStore(tmp_path)
        fps = [store.put(_spec(seed=s).execute()) for s in (1, 2, 3)]
        # dry_run reports without deleting
        doomed = store.gc(max_entries=1, dry_run=True)
        assert len(doomed) == 2 and len(store) == 3
        # age: everything is newer than the cutoff from "now"; from the
        # future everything expires
        assert store.gc(max_age_days=1.0) == []
        future = datetime.now(timezone.utc) + timedelta(days=30)
        store2 = RunStore(tmp_path)
        deleted = store2.gc(max_age_days=7.0, now=future)
        assert sorted(deleted) == sorted(fps) and len(store2) == 0
        # count: keep newest N
        fps = [store2.put(_spec(seed=s).execute()) for s in (1, 2, 3)]
        assert len(store2.gc(max_entries=2)) == 1 and len(store2) == 2
        with pytest.raises(ConfigurationError):
            store2.gc(max_entries=-1)
        with pytest.raises(ConfigurationError):
            store2.gc(max_age_days=-0.5)


class TestLegacyIndexCompatibility:
    """Stores written before the shard tree became the only state carry an
    ``index.json`` catalogue.  Whether it is torn or stale, every reader
    must give exactly what the same shard tree gives with no index."""

    @pytest.fixture
    def trees(self, tmp_path):
        bare = RunStore(tmp_path / "bare")
        for seed in (1, 2, 3, 4, 5):
            bare.put(_spec(seed=seed).execute())
        rows = {e.fingerprint: asdict(e) for e in bare.list_runs()}
        deleted, omitted = sorted(rows)[:2]
        bare.delete(deleted)
        torn = tmp_path / "torn"
        shutil.copytree(bare.root, torn)
        (torn / "index.json").write_text("{ torn")
        stale = tmp_path / "stale"
        shutil.copytree(bare.root, stale)
        del rows[omitted]  # lists a deleted entry, omits a present one
        (stale / "index.json").write_text(json.dumps({
            "format": 1,
            "schema_version": SCHEMA_VERSION,
            "updated_at": "2020-01-01T00:00:00+00:00",
            "entries": rows,
        }))
        return bare.root, {"torn": torn, "stale": stale}

    def test_list_find_and_len_ignore_the_index(self, trees):
        bare, legacy = trees
        expected = RunStore(bare)
        assert len(expected) == 4
        for root in legacy.values():
            store = RunStore(root)
            assert store.list_runs() == expected.list_runs()
            assert len(store) == len(expected)
            for entry in expected.list_runs():
                prefix = entry.fingerprint[:6]
                assert store.find(prefix) == expected.find(prefix)
            assert store.find("") == expected.find("")

    def test_gc_matches_the_bare_tree(self, trees):
        bare, legacy = trees
        expected = RunStore(bare)
        deleted = expected.gc(max_entries=2)
        assert len(deleted) == 2
        for root in legacy.values():
            store = RunStore(root)
            assert store.gc(max_entries=2) == deleted
            assert store.list_runs() == expected.list_runs()

    def test_runs_cli_output_matches_the_bare_tree(self, trees, capsys):
        bare, legacy = trees
        fp = RunStore(bare).list_runs()[0].fingerprint

        def output(root):
            outputs = []
            for command in (["list"], ["show", fp[:10]], ["stats"], ["stats", "--group"]):
                assert main(["runs", "--store", str(root), *command]) == 0
                outputs.append(capsys.readouterr().out.replace(str(root), "<root>"))
            return outputs

        expected = output(bare)
        for root in legacy.values():
            assert output(root) == expected

    def test_export_import_matches_the_bare_tree(self, trees, tmp_path):
        bare, legacy = trees
        bare_tarball = tmp_path / "bare.tar.gz"
        bare_summary = export_store(RunStore(bare), bare_tarball)
        expected = RunStore(tmp_path / "from-bare")
        import_store(expected, bare_tarball)
        for name, root in legacy.items():
            store = RunStore(root)
            tarball = tmp_path / f"{name}.tar.gz"
            summary = export_store(store, tarball)
            assert summary["exported"] == bare_summary["exported"] == 4
            assert summary["skipped"] == bare_summary["skipped"] == []
            imported = RunStore(tmp_path / f"from-{name}")
            assert import_store(imported, tarball) == {
                "imported": 4, "merged": 0, "unchanged": 0,
            }
            assert imported.list_runs() == expected.list_runs()
            assert import_store(store, bare_tarball) == {
                "imported": 0, "merged": 0, "unchanged": 4,
            }
            assert store.list_runs() == expected.list_runs()

    def test_reindex_removes_the_legacy_index(self, trees):
        _bare, legacy = trees
        for root in legacy.values():
            store = RunStore(root)
            assert store.reindex() == 4
            assert not (root / "index.json").exists()
            assert store.reindex() == 4  # idempotent


class TestStoreResolution:
    def test_resolve_none_without_env_is_none(self):
        assert resolve_store(None) is None

    def test_resolve_false_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path))
        assert resolve_store(False) is None

    def test_resolve_true_is_ambiguous(self):
        with pytest.raises(ConfigurationError, match="ambiguous"):
            resolve_store(True)

    def test_resolve_passthrough_and_paths(self, tmp_path):
        store = RunStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path)).root == tmp_path
        assert resolve_store(StoreConfig(root=tmp_path)).root == tmp_path

    def test_resolve_garbage_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            resolve_store(42)

    @pytest.mark.parametrize("token", ["", "0", "off", "FALSE", "no", "None", "disabled"])
    def test_env_falsey_tokens_disable_default(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_RUN_STORE", token)
        assert default_store() is None

    def test_env_path_enables_and_caches_instance(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path))
        store = default_store()
        assert store is not None and store.root == tmp_path
        assert default_store() is store
        assert resolve_store(None) is store


# ---------------------------------------------------------------------------
# Cache-hit bit-identity, across every algorithm and execution path
# ---------------------------------------------------------------------------

def _canonical_algorithms():
    return sorted({ALGORITHMS.canonical(name) for name in ALGORITHMS.names()})


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", _canonical_algorithms())
    def test_hit_equals_cold_run_with_zero_work(self, tmp_path, monkeypatch, algorithm):
        spec = _spec(algorithm={"name": algorithm, "b": 2, "alpha": 4})
        store = RunStore(tmp_path)
        cold = execute_experiment_spec(spec, store=store)
        _forbid_simulation(monkeypatch, f"{algorithm}: simulated despite warm store")
        warm = execute_experiment_spec(spec, store=store)
        _assert_identical(cold, warm)
        assert _store_count("hits") == 1

    def test_hit_restamps_requesting_specs_provenance(self, tmp_path):
        store = RunStore(tmp_path)
        execute_experiment_spec(_spec(name="first"), store=store)
        warm = execute_experiment_spec(_spec(name="second"), store=store)
        assert warm.spec["name"] == "second"


class TestExecutionPaths:
    def test_unseeded_spec_never_stored(self, tmp_path):
        store = RunStore(tmp_path)
        execute_experiment_spec(_spec(seed=None), store=store)
        assert len(store) == 0 and _store_count("writes") == 0

    def test_matching_history_collection_ineligible(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec(simulation={"checkpoints": 4, "collect_matching_history": True})
        execute_experiment_spec(spec, store=store)
        assert len(store) == 0

    def test_explicit_trace_bypasses_store(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        trace = spec.build_trace(spec.run_seeds()[0])
        execute_experiment_spec(spec, trace=trace, store=store)
        assert len(store) == 0 and _store_count("hits") == 0

    def test_observers_bypass_reads_but_still_write(self, tmp_path):
        from repro.experiments import CostTraceObserver

        store = RunStore(tmp_path)
        spec = _spec()
        fp = store.put(execute_experiment_spec(spec, store=store))
        observer = CostTraceObserver()
        execute_experiment_spec(spec, observers=(observer,), store=store)
        assert observer.events  # the run really happened
        assert len(store.get_payload(fp)["history"]) == 3  # cold + put + rerun

    def test_validate_bypasses_reads(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        spec = _spec()
        execute_experiment_spec(spec, store=store)
        calls = []
        real = runner_mod.run_simulation
        monkeypatch.setattr(
            runner_mod, "run_simulation",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        execute_experiment_spec(spec, validate=True, store=store)
        assert calls  # validation forced a real run despite the warm store

    def test_runner_repetitions_hit_per_seed(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        runner = ExperimentRunner(repetitions=3, base_seed=11, store=store)
        cold = runner.run(_spec(seed=None))
        _forbid_simulation(monkeypatch)
        warm = ExperimentRunner(repetitions=3, base_seed=11, store=store).run(
            _spec(seed=None))
        assert cold.to_dict() == warm.to_dict()
        assert _store_count("hits") == 3

    def test_run_experiments_incremental(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        specs = [_spec(), _spec(algorithm={"name": "greedy", "b": 2, "alpha": 4})]
        cold = run_experiments(specs, store=store)
        _forbid_simulation(monkeypatch)
        warm = run_experiments(specs, store=store)
        assert [a.to_dict() for a in cold] == [a.to_dict() for a in warm]

    def test_compare_on_shared_trace_warm_builds_nothing(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        specs = [_spec(seed=None),
                 _spec(seed=None, algorithm={"name": "oblivious", "b": 2, "alpha": 4})]
        runner = ExperimentRunner(repetitions=2, base_seed=5, store=store)
        cold = runner.compare_on_shared_trace(specs)
        # Zero work on rebuild: the shared trace is not even generated.
        _forbid_simulation(monkeypatch)
        warm = ExperimentRunner(repetitions=2, base_seed=5, store=store)\
            .compare_on_shared_trace(specs)
        assert {k: v.to_dict() for k, v in cold.items()} \
            == {k: v.to_dict() for k, v in warm.items()}

    def test_compare_on_shared_trace_partial_miss_recomputes_only_dirty(self, tmp_path):
        store = RunStore(tmp_path)
        warm_specs = [_spec(seed=None)]
        ExperimentRunner(base_seed=5, store=store).compare_on_shared_trace(warm_specs)
        writes_before = _store_count("writes")
        both = warm_specs + [_spec(seed=None,
                                   algorithm={"name": "greedy", "b": 2, "alpha": 4})]
        ExperimentRunner(base_seed=5, store=store).compare_on_shared_trace(both)
        assert _store_count("writes") == writes_before + 1  # only the new cell

    def test_run_many_uses_store(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        specs = [_spec(seed=None)]
        runner = ExperimentRunner(repetitions=2, base_seed=9, store=store)
        cold = runner.run_many(specs)
        _forbid_simulation(monkeypatch)
        warm = ExperimentRunner(repetitions=2, base_seed=9, store=store).run_many(specs)
        assert [a.to_dict() for a in cold] == [a.to_dict() for a in warm]


class TestRunSpecsParallelStore:
    def test_warm_grid_never_dispatches(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        grid = [_spec(seed=s) for s in (1, 2, 3)]
        cold = run_specs_parallel(grid, n_workers=1, store=store)
        def _boom(*_a, **_k):
            raise AssertionError("dispatched to execution despite warm store")
        monkeypatch.setattr(scheduler_mod, "run_task", _boom)
        warm = run_specs_parallel(grid, n_workers=1, store=store)
        for c, w in zip(cold, warm):
            _assert_identical(c, w)

    def test_mixed_hits_and_misses_preserve_order(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        warm_spec = _spec(seed=1)
        run_specs_parallel([warm_spec], n_workers=1, store=store)
        grid = [_spec(seed=2), warm_spec, _spec(seed=3)]
        dispatched = []
        real = scheduler_mod.run_task
        monkeypatch.setattr(
            scheduler_mod, "run_task",
            lambda task, policy: dispatched.extend(task.specs) or real(task, policy))
        results = run_specs_parallel(grid, n_workers=1, store=store)
        assert [s.seed for s in dispatched] == [2, 3]  # the hit never dispatched
        assert [r.spec["seed"] for r in results] == [2, 1, 3]  # input order preserved
        assert len(store) == 3

    def test_ineligible_specs_flow_through_uncached(self, tmp_path):
        store = RunStore(tmp_path)
        results = run_specs_parallel([_spec(seed=None)], n_workers=1, store=store)
        assert len(results) == 1 and len(store) == 0

    @pytest.mark.parallel
    def test_pool_path_warm_grid_is_bit_identical(self, tmp_path):
        store = RunStore(tmp_path)
        grid = [_spec(seed=s) for s in (1, 2, 3, 4)]
        cold = run_specs_parallel(grid, n_workers=2, store=store)
        warm = run_specs_parallel(grid, n_workers=2, store=store)
        for c, w in zip(cold, warm):
            _assert_identical(c, w)
        assert _store_count("hits") == len(grid)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class TestStatistics:
    def test_bootstrap_ci_deterministic_and_degenerate(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_ci(values) == bootstrap_ci(values)
        low, high = bootstrap_ci(values)
        assert low <= np.mean(values) <= high
        assert bootstrap_ci([5.0]) == (5.0, 5.0)
        with pytest.raises(ConfigurationError):
            bootstrap_ci([])
        with pytest.raises(ConfigurationError):
            bootstrap_ci(values, confidence=1.5)

    def test_sample_statistics_covers(self):
        stats = sample_statistics([1.0, 1.1, 0.9, 1.05])
        assert stats.n == 4 and stats.covers(stats.mean)
        assert not stats.covers(100.0)
        with pytest.raises(ConfigurationError):
            sample_statistics([])

    def _put_history(self, store, spec, walls, costs=None):
        result = execute_experiment_spec(spec, store=False)
        fp = fingerprint_spec(spec)
        for i, wall in enumerate(walls):
            doctored = replace(result, total_elapsed_seconds=wall)
            if costs is not None:
                doctored = replace(doctored, total_routing_cost=costs[i],
                                   total_reconfiguration_cost=0.0)
            store.put(doctored, fingerprint=fp)
        return fp

    def test_runtime_regression_needs_history_and_an_outlier(self, tmp_path):
        store = RunStore(tmp_path)
        fp = self._put_history(store, _spec(), [1.0, 1.01, 0.99, 50.0])
        history = spec_statistics(store, fp)
        assert history.runtime_regression is True
        assert history.cost_regression is False
        assert history.n_runs == 4
        # exactly MIN_HISTORY samples is not enough evidence
        fp2 = self._put_history(store, _spec(seed=SEED + 1), [1.0, 1.0, 50.0])
        assert spec_statistics(store, fp2).runtime_regression is False
        # a latest sample inside the prior CI does not flag
        fp3 = self._put_history(store, _spec(seed=SEED + 2), [1.0, 1.04, 0.96, 1.08, 1.0])
        assert spec_statistics(store, fp3).runtime_regression is False

    def test_cost_drift_is_flagged_unconditionally(self, tmp_path):
        store = RunStore(tmp_path)
        fp = self._put_history(store, _spec(), [1.0, 1.0], costs=[100.0, 101.0])
        assert spec_statistics(store, fp).cost_regression is True

    def test_spec_statistics_missing_fingerprint(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no stored run"):
            spec_statistics(RunStore(tmp_path), "ab" * 20)

    def test_store_statistics_covers_every_entry(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (1, 2):
            execute_experiment_spec(_spec(seed=seed), store=store)
        assert len(store_statistics(store)) == 2

    def test_group_statistics_pools_seeds(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (1, 2, 3):
            execute_experiment_spec(_spec(seed=seed), store=store)
        execute_experiment_spec(
            _spec(algorithm={"name": "greedy", "b": 2, "alpha": 4}), store=store)
        groups = group_statistics(store)
        assert len(groups) == 2
        by_algo = {g.algorithm: g for g in groups}
        assert sorted(by_algo["rbma"].seeds) == [1, 2, 3]
        assert by_algo["rbma"].cost.n == 3
        assert by_algo["greedy"].cost.n == 1
        assert by_algo["rbma"].label == "rbma (b: 2)"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(_spec().to_json())
    return path


class TestCli:
    def test_run_twice_second_is_all_hits(self, tmp_path, capsys):
        spec_file = _write_spec_file(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["run", str(spec_file), "--store", str(store_dir)]) == 0
        first = capsys.readouterr().out
        assert "store: 0 hit(s), 1 miss(es)" in first
        assert main(["run", str(spec_file), "--store", str(store_dir)]) == 0
        second = capsys.readouterr().out
        assert "store: 1 hit(s), 0 miss(es)" in second

    def test_no_store_flag_forces_cold(self, tmp_path, monkeypatch, capsys):
        store_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_RUN_STORE", str(store_dir))
        spec_file = _write_spec_file(tmp_path)
        assert main(["run", str(spec_file), "--no-store"]) == 0
        assert "store:" not in capsys.readouterr().out
        assert not store_dir.exists()

    def test_env_default_store_is_used(self, tmp_path, monkeypatch, capsys):
        store_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_RUN_STORE", str(store_dir))
        spec_file = _write_spec_file(tmp_path)
        assert main(["run", str(spec_file)]) == 0
        assert "store:" in capsys.readouterr().out
        assert store_dir.exists()

    def _populated_store(self, tmp_path):
        store_dir = tmp_path / "store"
        store = RunStore(store_dir)
        for seed in (1, 2):
            execute_experiment_spec(_spec(seed=seed), store=store)
        return store_dir, store

    def test_runs_list_show_stats_gc_end_to_end(self, tmp_path, capsys):
        store_dir, store = self._populated_store(tmp_path)
        assert main(["runs", "--store", str(store_dir), "list"]) == 0
        out = capsys.readouterr().out
        assert "2 stored run(s)" in out and "rbma" in out and "zipf" in out

        fp = store.list_runs()[0].fingerprint
        assert main(["runs", "--store", str(store_dir), "show", fp[:10]]) == 0
        out = capsys.readouterr().out
        assert fp in out and "total cost:" in out and "recomputations: 1" in out

        assert main(["runs", "--store", str(store_dir), "stats"]) == 0
        out = capsys.readouterr().out
        assert "2 stored run(s)" in out and "runtime mean" in out

        assert main(["runs", "--store", str(store_dir), "stats", "--group"]) == 0
        out = capsys.readouterr().out
        assert "1 configuration group(s)" in out and "over 2 seed(s)" in out

        assert main(["runs", "--store", str(store_dir), "gc",
                     "--max-entries", "1", "--dry-run"]) == 0
        assert "would delete 1 entry" in capsys.readouterr().out
        assert len(RunStore(store_dir)) == 2
        assert main(["runs", "--store", str(store_dir), "gc",
                     "--max-entries", "1"]) == 0
        assert "deleted 1 entry" in capsys.readouterr().out
        assert len(RunStore(store_dir)) == 1

    def test_runs_show_errors(self, tmp_path, capsys):
        store_dir, store = self._populated_store(tmp_path)
        assert main(["runs", "--store", str(store_dir), "show", "ffff"]) == 2
        assert "no stored run matches" in capsys.readouterr().err
        assert main(["runs", "--store", str(store_dir), "show", ""]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_runs_without_store_configured_errors(self, capsys):
        assert main(["runs", "list"]) == 2
        assert "no run store configured" in capsys.readouterr().err

    def test_runs_without_subcommand_prints_usage(self, capsys):
        assert main(["runs"]) == 0
        assert "usage: repro runs" in capsys.readouterr().out

    def test_sweep_accepts_store_flags(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["sweep", "--workload", "zipf", "--nodes", "8", "--requests", "150",
                "--b-values", "2", "--algorithms", "rbma", "--checkpoints", "4",
                "--store", str(store_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(RunStore(store_dir)) >= 1
        assert main(argv) == 0  # warm pass stays green
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Result serialisation satellites
# ---------------------------------------------------------------------------

class TestResultRoundTrip:
    def test_aggregate_round_trip_symmetry(self, tmp_path):
        runs = [execute_experiment_spec(_spec(seed=s), store=False) for s in (1, 2)]
        agg = aggregate_runs(runs)
        rebuilt = AggregateResult.from_dict(json.loads(json.dumps(agg.to_dict())))
        assert rebuilt.to_dict() == agg.to_dict()
        path = tmp_path / "agg.json"
        agg.save_json(path)
        assert AggregateResult.load_json(path).to_dict() == agg.to_dict()

    def test_numpy_extras_serialise_deterministically(self, tmp_path):
        result = execute_experiment_spec(_spec(), store=False)
        doctored = replace(result, extra={
            "np_scalar": np.float64(1.5),
            "np_int": np.int64(3),
            "array": np.arange(3),
            "nested": {"inner": np.float64(2.0)},
            "tags": {"b", "a"},
        })
        data = doctored.to_dict()
        json.dumps(data)  # must be serialisable at all
        assert data["extra"]["np_scalar"] == 1.5
        assert data["extra"]["np_int"] == 3
        assert data["extra"]["array"] == [0, 1, 2]
        assert data["extra"]["nested"]["inner"] == 2.0
        assert data["extra"]["tags"] == ["a", "b"]
        store = RunStore(tmp_path)
        fp = store.put(doctored, fingerprint=fingerprint_spec(_spec()))
        _assert_identical(store.get(fp), doctored)


class TestCounters:
    def test_global_counters_accumulate_and_reset(self, tmp_path):
        """Store counts are process totals across store instances."""
        execute_experiment_spec(_spec(), store=RunStore(tmp_path))
        execute_experiment_spec(_spec(), store=RunStore(tmp_path))
        counts = snapshot("store.")
        assert counts["store.writes"] == 1 and counts["store.hits"] == 1
        reset("store.")
        assert snapshot("store.") == {}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(target, {"ok": True})
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["payload.json"]
