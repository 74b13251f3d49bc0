"""Run-store transfer: tarball export/import with identical-or-error merging.

The contract (see :mod:`repro.store.transfer`): an export is a portable
snapshot of the store's entry files; importing it into another store
round-trips every entry bit-identically, merges recomputation histories of
identical entries, and *aborts before writing anything* when the two stores
disagree about a fingerprint's result — deterministic computations disagree
only when something is broken, so that is an error, never an overwrite.
"""

from __future__ import annotations

import io
import json
import tarfile

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ExperimentSpec
from repro.ioutil import atomic_write_json
from repro.simulation import run_specs_parallel
from repro.store import RunStore, export_store, fingerprint_spec, import_store
from repro.store.run_store import entry_checksum
from repro.store.transfer import MANIFEST_NAME

pytestmark = pytest.mark.store

SEED = 2023


def _specs(n=2):
    return [
        ExperimentSpec(
            algorithm={"name": name, "b": 2, "alpha": 4.0},
            traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 120}},
            simulation={"checkpoints": 4},
            seed=SEED,
        )
        for name in ("rbma", "bma", "oblivious")[:n]
    ]


def _populated_store(tmp_path, name="src", n=2):
    store = RunStore(tmp_path / name)
    run_specs_parallel(_specs(n), n_workers=1, store=store)
    return store


class TestExport:
    def test_export_packs_manifest_and_entries(self, tmp_path):
        store = _populated_store(tmp_path)
        tarball = tmp_path / "runs.tar.gz"
        summary = export_store(store, tarball)
        assert summary["exported"] == 2
        assert summary["skipped"] == []
        with tarfile.open(tarball, "r:gz") as tar:
            names = tar.getnames()
            manifest = json.load(tar.extractfile(MANIFEST_NAME))
        assert manifest["entries"] == 2
        assert sorted(manifest["fingerprints"]) == sorted(
            fingerprint_spec(s) for s in _specs(2)
        )
        assert sum(1 for n in names if n.startswith("runs/")) == 2

    def test_torn_entry_files_are_skipped_not_fatal(self, tmp_path):
        store = _populated_store(tmp_path, n=3)
        [torn, rotted, healthy] = sorted(store.runs_dir.glob("*/*.json"))
        torn.write_text("{ torn", encoding="utf-8")
        # A bit-rotted entry parses but fails its checksum: skipped too.
        payload = json.loads(rotted.read_text(encoding="utf-8"))
        payload["result"]["total_routing_cost"] += 1.0
        rotted.write_text(json.dumps(payload), encoding="utf-8")
        summary = export_store(store, tmp_path / "runs.tar.gz")
        assert summary["exported"] == 1
        assert summary["skipped"] == [torn.name, rotted.name]
        target = RunStore(tmp_path / "dst")
        import_store(target, tmp_path / "runs.tar.gz")
        assert [e.fingerprint for e in target.list_runs()] == [healthy.stem]


class TestImport:
    def test_round_trip_into_an_empty_store(self, tmp_path):
        source = _populated_store(tmp_path)
        tarball = tmp_path / "runs.tar.gz"
        export_store(source, tarball)
        target = RunStore(tmp_path / "dst")
        summary = import_store(target, tarball)
        assert summary == {"imported": 2, "merged": 0, "unchanged": 0}
        for spec in _specs(2):
            fp = fingerprint_spec(spec)
            assert target.get_payload(fp) == source.get_payload(fp)
        # Listings read the imported entry files: no rebuild step.
        assert len(target.list_runs()) == 2
        # A warm import is a no-op.
        assert import_store(target, tarball) == {
            "imported": 0, "merged": 0, "unchanged": 2,
        }

    def test_identical_entries_merge_their_histories(self, tmp_path):
        source = _populated_store(tmp_path)
        tarball = tmp_path / "runs.tar.gz"
        export_store(source, tarball)
        target = RunStore(tmp_path / "dst")
        import_store(target, tarball)
        # The source recomputes later (same results, new history rows) and
        # re-exports; importing again unions the histories.
        for spec in _specs(2):
            fp = fingerprint_spec(spec)
            payload = source.get_payload(fp)
            payload["history"].append(
                {**payload["history"][-1], "written_at": "2027-01-01T00:00:00+00:00"}
            )
            source.write_payload(payload)  # resealed, as put would
        tarball2 = tmp_path / "runs2.tar.gz"
        export_store(source, tarball2)
        summary = import_store(target, tarball2)
        assert summary["imported"] == 0
        assert summary["merged"] == 2
        for spec in _specs(2):
            payload = target.get_payload(fingerprint_spec(spec))
            assert len(payload["history"]) >= 2
            # updated_at is the newest recomputation, as put keeps it.
            assert payload["updated_at"] == "2027-01-01T00:00:00+00:00"

    def test_conflicting_results_abort_without_writing_anything(self, tmp_path):
        source = _populated_store(tmp_path, n=2)
        tarball = tmp_path / "runs.tar.gz"
        export_store(source, tarball)
        # The target holds one of the fingerprints with a *different* result.
        target = RunStore(tmp_path / "dst")
        run_specs_parallel(_specs(1), n_workers=1, store=target)
        conflicted = fingerprint_spec(_specs(1)[0])
        payload = target.get_payload(conflicted)
        payload["result"]["total_routing_cost"] = -1.0
        # Refresh the checksum: this models a *genuinely different* result
        # (two stores disagreeing), not a corrupt entry (which quarantines).
        payload["checksum"] = entry_checksum(payload)
        atomic_write_json(target.entry_path(conflicted), payload)
        missing = fingerprint_spec(_specs(2)[1])
        with pytest.raises(SimulationError) as excinfo:
            import_store(target, tarball)
        message = str(excinfo.value)
        assert conflicted in message
        assert "nothing was imported" in message
        # The non-conflicting entry was NOT written either (all-or-nothing).
        assert target.get_payload(missing) is None

    def test_truncated_tarball_aborts_before_any_write_naming_the_member(
        self, tmp_path
    ):
        source = _populated_store(tmp_path)
        tarball = tmp_path / "runs.tar.gz"
        export_store(source, tarball)
        # Truncate the download: keep the gzip header and most of the body
        # but drop the tail, the classic interrupted-copy failure.
        data = tarball.read_bytes()
        truncated = tmp_path / "truncated.tar.gz"
        truncated.write_bytes(data[: int(len(data) * 0.6)])
        target = RunStore(tmp_path / "dst")
        with pytest.raises(SimulationError) as excinfo:
            import_store(target, truncated)
        message = str(excinfo.value)
        assert "truncated or corrupt" in message
        assert "nothing was imported" in message
        # The nearest member is named so the operator can see where it died.
        assert "at member" in message or "at the header" in message
        # Abort-before-write: the target store has no entries and no debris.
        assert len(target.list_runs()) == 0
        assert not target.runs_dir.exists() or not list(target.runs_dir.rglob("*.json"))

    def test_corrupt_member_aborts_before_any_write_naming_the_member(
        self, tmp_path
    ):
        source = _populated_store(tmp_path)
        good = tmp_path / "runs.tar.gz"
        export_store(source, good)

        def torn(data):
            return data[: len(data) // 2] + b"\x00garbage"

        def rotted(data):  # parses, but its checksum no longer matches
            payload = json.loads(data)
            payload["result"]["total_routing_cost"] += 1.0
            return json.dumps(payload).encode("utf-8")

        def misnamed(data):  # sealed, but names another fingerprint
            payload = json.loads(data)
            payload["fingerprint"] = "ab" * 20
            payload["checksum"] = entry_checksum(payload)
            return json.dumps(payload).encode("utf-8")

        for mangle in (torn, rotted, misnamed):
            case = mangle.__name__
            # Rebuild the tarball with one entry's bytes mangled.
            bad = tmp_path / f"{case}.tar.gz"
            bad_member = None
            with tarfile.open(good, "r:gz") as src, tarfile.open(bad, "w:gz") as dst:
                for member in src.getmembers():
                    data = src.extractfile(member).read()
                    if bad_member is None and member.name.startswith("runs/"):
                        bad_member = member.name
                        data = mangle(data)
                    info = tarfile.TarInfo(name=member.name)
                    info.size = len(data)
                    dst.addfile(info, io.BytesIO(data))
            assert bad_member is not None
            target = RunStore(tmp_path / f"dst-{case}")
            with pytest.raises(SimulationError) as excinfo:
                import_store(target, bad)
            message = str(excinfo.value)
            assert bad_member in message
            assert "nothing was imported" in message
            assert len(target.list_runs()) == 0
            assert not target.runs_dir.exists()

    def test_not_an_export_is_a_configuration_error(self, tmp_path):
        bogus = tmp_path / "bogus.tar.gz"
        with tarfile.open(bogus, "w:gz") as tar:
            pass
        with pytest.raises(ConfigurationError, match="missing manifest.json"):
            import_store(RunStore(tmp_path / "dst"), bogus)
        with pytest.raises(ConfigurationError, match="cannot read"):
            import_store(RunStore(tmp_path / "dst"), tmp_path / "absent.tar.gz")


class TestTransferCLI:
    def test_runs_export_import_round_trip(self, tmp_path, capsys):
        source = _populated_store(tmp_path)
        tarball = tmp_path / "runs.tar.gz"
        assert main(["runs", "--store", str(source.root),
                     "export", str(tarball)]) == 0
        assert "exported 2 entries" in capsys.readouterr().out
        target_root = tmp_path / "dst"
        assert main(["runs", "--store", str(target_root),
                     "import", str(tarball)]) == 0
        assert "imported 2 new entries" in capsys.readouterr().out
        assert len(RunStore(target_root).list_runs()) == 2
