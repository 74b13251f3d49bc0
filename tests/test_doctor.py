"""``repro doctor``: auditing and repairing store/queue crash wreckage.

Every anomaly class the doctor knows (see :mod:`repro.doctor`) is seeded
deliberately here — stale tmp siblings, torn and checksum-failing store
entries, an ``index.json`` left by an older store format, orphaned
leases, expired claims, half-written task files — then the audit must
find exactly it, ``--fix`` must repair what is safely repairable, and a
second audit must come back clean.  The CLI front-end's exit codes (0
clean, 1 findings, 2 usage errors) are part of the contract: chaos CI
gates on them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.doctor import audit_queue, audit_store
from repro.exec.queue import WorkQueue
from repro.experiments import ExperimentSpec
from repro.obs import snapshot
from repro.store.run_store import RunStore

pytestmark = pytest.mark.chaos

SEED = 99


def _spec(seed=SEED):
    return ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 120}},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _backdate(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


def _populated_store(tmp_path):
    store = RunStore(tmp_path / "store")
    fp = store.put(_spec().execute())
    return store, fp


def _queue_with_task(tmp_path, **kwargs):
    queue = WorkQueue.create(tmp_path / "queue", plan_id="plan-a", **kwargs)
    queue.enqueue(
        {"id": "t0001", "specs": [], "indices": [0], "fingerprints": [None],
         "solver": {}}
    )
    return queue


class TestStoreAudit:
    def test_healthy_store_is_clean(self, tmp_path):
        store, _fp = _populated_store(tmp_path)
        report = audit_store(store)
        assert report.clean()
        assert report.findings == []
        assert report.info["entries"] == 1

    def test_stale_tmp_file_found_and_reaped(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        tmp = store.entry_path(fp).parent / ".dead.json.tmp-1"
        tmp.write_text("{ half")
        _backdate(tmp, 2 * store.TMP_MAX_AGE_SECONDS)
        report = audit_store(store)
        assert [f.kind for f in report.findings] == ["stale_tmp"]
        assert not report.clean()
        fixed = audit_store(store, fix=True)
        assert fixed.clean() and not tmp.exists()
        assert audit_store(store).findings == []

    def test_fresh_tmp_file_is_not_flagged(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        (store.entry_path(fp).parent / ".live.json.tmp-2").write_text("{ mid")
        assert audit_store(store).clean()

    def test_torn_entry_found_and_quarantined(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        store.entry_path(fp).write_text("{ torn")
        report = audit_store(store)
        kinds = sorted(f.kind for f in report.findings)
        # The index still lists the now-torn entry, so both surface.
        assert "corrupt_entry" in kinds
        with pytest.warns(RuntimeWarning):
            fixed = audit_store(store, fix=True)
        assert fixed.clean()
        assert (store.quarantine_dir / f"{fp}.json").exists()
        assert audit_store(store).clean()

    def test_checksum_mismatch_found(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        path = store.entry_path(fp)
        payload = json.loads(path.read_text())
        payload["result"]["total_routing_cost"] = 0.0
        path.write_text(json.dumps(payload))
        report = audit_store(store)
        [finding] = [f for f in report.findings if f.kind == "corrupt_entry"]
        assert "checksum" in finding.detail

    def test_fingerprint_name_mismatch_found(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        path = store.entry_path(fp)
        rogue = path.with_name("ab" * 20 + ".json")
        rogue.write_text(path.read_text())
        report = audit_store(store)
        kinds = [f.kind for f in report.findings]
        assert "corrupt_entry" in kinds

    def _assert_legacy_index_fixed(self, store, healthy_entries):
        report = audit_store(store)
        assert [f.kind for f in report.findings] == ["legacy_index"]
        [finding] = report.findings
        assert finding.path == "index.json" and finding.fixable
        assert "older store format" in finding.detail
        assert report.info["entries"] == healthy_entries
        fixed = audit_store(store, fix=True)
        assert [f.fixed for f in fixed.findings] == [True]
        assert not store.legacy_index_path.exists()
        after = audit_store(store)
        assert after.clean() and after.info["entries"] == healthy_entries

    def test_torn_legacy_index_found_and_removed(self, tmp_path):
        store, _fp = _populated_store(tmp_path)
        store.legacy_index_path.write_text("{ torn")
        self._assert_legacy_index_fixed(store, healthy_entries=1)

    def test_stale_legacy_index_found_and_removed(self, tmp_path):
        store, fp = _populated_store(tmp_path)
        store.legacy_index_path.write_text(json.dumps(
            {"format": 1, "entries": {e.fingerprint: asdict(e)
                                      for e in store.list_runs()}}
        ))
        store.entry_path(fp).unlink()  # entry removed behind the index's back
        self._assert_legacy_index_fixed(store, healthy_entries=0)


class TestQueueAudit:
    def test_healthy_queue_is_clean(self, tmp_path):
        queue = _queue_with_task(tmp_path)
        report = audit_queue(queue)
        assert report.clean() and report.findings == []
        assert report.info["counts"]["ready"] == 1

    def test_orphaned_lease_found_and_removed(self, tmp_path):
        queue = _queue_with_task(tmp_path)
        orphan = queue.claimed_dir / "t9999.a01.json.lease"
        orphan.write_text(json.dumps({"worker": "ghost", "expires_at": 0}))
        report = audit_queue(queue)
        assert [f.kind for f in report.findings] == ["orphaned_lease"]
        assert audit_queue(queue, fix=True).clean()
        assert not orphan.exists()

    def test_expired_claim_found_and_requeued(self, tmp_path):
        queue = _queue_with_task(tmp_path, lease_seconds=30.0)
        name, _ = queue.claim("doomed")
        lease_path = queue.claimed_dir / f"{name}.lease"
        lease = json.loads(lease_path.read_text())
        lease["expires_at"] = time.time() - 60.0
        lease_path.write_text(json.dumps(lease))
        report = audit_queue(queue)
        assert [f.kind for f in report.findings] == ["expired_claim"]
        fixed = audit_queue(queue, fix=True)
        assert fixed.clean()
        # The fix is the queue's own requeue: attempt counter bumped.
        task_id, attempt = queue.parse_name(name)
        assert (queue.tasks_dir / queue.task_file_name(task_id, attempt + 1)).exists()
        assert audit_queue(queue).clean()

    def test_claim_without_lease_gets_a_grace_period(self, tmp_path):
        # A missing and a torn lease alike: the doctor reports exactly the
        # claims requeue_expired acts on, so a fresh one is neither
        # reported nor "fixed", and it stays claimed.
        for lease, detail in (("missing", "no lease file"), ("torn", "unreadable lease")):
            queue = _queue_with_task(tmp_path / lease, lease_seconds=30.0)
            name, _ = queue.claim("w")
            lease_path = queue.claimed_dir / f"{name}.lease"
            if lease == "missing":
                lease_path.unlink()
            else:
                lease_path.write_text('{"worker": "w", "expires_')
            fixed = audit_queue(queue, fix=True)  # fresh claim: maybe mid-lease-write
            assert fixed.findings == [] and fixed.clean()
            assert (queue.claimed_dir / name).exists()
            assert audit_queue(queue).clean()
            _backdate(queue.claimed_dir / name, 120.0)
            report = audit_queue(queue)
            assert [f.kind for f in report.findings] == ["expired_claim"]
            assert detail in report.findings[0].detail
            fixed = audit_queue(queue, fix=True)
            assert [(f.kind, f.fixed) for f in fixed.findings] == [("expired_claim", True)]
            assert not (queue.claimed_dir / name).exists()
            assert queue.counts()["ready"] == 1

    def test_half_written_task_file_reported_not_deleted(self, tmp_path):
        queue = _queue_with_task(tmp_path)
        torn = queue.tasks_dir / "t0002.a01.json"
        torn.write_text('{"id": "t0002", "specs": [')
        report = audit_queue(queue)
        [finding] = [f for f in report.findings if f.kind == "half_written_task"]
        assert not finding.fixable
        audit_queue(queue, fix=True)
        assert torn.exists()  # may hold the only copy; never auto-deleted

    def test_stale_tmp_in_queue_dirs_found_and_reaped_by_fix(self, tmp_path):
        queue = _queue_with_task(tmp_path)
        tmp = queue.results_dir / ".r.json.tmp-7"
        tmp.write_text("{ half")
        _backdate(tmp, 2 * queue.TMP_MAX_AGE_SECONDS)
        report = audit_queue(queue)
        assert [f.kind for f in report.findings] == ["stale_tmp"]
        assert audit_queue(queue, fix=True).clean()
        assert not tmp.exists()

    def test_requeue_expired_reaps_stale_tmp_and_counts(self, tmp_path):
        queue = _queue_with_task(tmp_path)
        tmp = queue.tasks_dir / ".t.json.tmp-8"
        tmp.write_text("{ half")
        _backdate(tmp, 2 * queue.TMP_MAX_AGE_SECONDS)
        queue.requeue_expired()
        assert not tmp.exists()
        assert snapshot("queue.") == {"queue.tmp_reaped": 1}


class TestDoctorCLI:
    def test_exit_codes_audit_fix_clean(self, tmp_path, capsys):
        store, fp = _populated_store(tmp_path)
        store.entry_path(fp).write_text("{ torn")
        queue = _queue_with_task(tmp_path)
        orphan = queue.claimed_dir / "t9.a01.json.lease"
        orphan.write_text("{}")
        args = ["doctor", "--store", str(store.root), "--queue", str(queue.root)]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "corrupt_entry" in out and "orphaned_lease" in out
        with pytest.warns(RuntimeWarning):
            assert main(args + ["--fix"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        store, _fp = _populated_store(tmp_path)
        assert main(["doctor", "--store", str(store.root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report[0]["area"] == "store"
        assert report[0]["clean"] is True

    def test_no_targets_is_a_usage_error(self, capsys):
        assert main(["doctor"]) == 2
        assert "nothing to audit" in capsys.readouterr().err

    def test_env_store_is_audited_by_default(self, tmp_path, monkeypatch, capsys):
        store, _fp = _populated_store(tmp_path)
        monkeypatch.setenv("REPRO_RUN_STORE", str(store.root))
        assert main(["doctor"]) == 0
        assert "clean" in capsys.readouterr().out
