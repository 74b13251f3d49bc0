"""Pull-based work queue: lease semantics, crash recovery, queue backend e2e.

The queue's whole contract is failure semantics (see :mod:`repro.exec.queue`):

* **Duplicate-claim protection** — a task file can be claimed by exactly one
  worker (``os.replace`` has one winner), so two workers polling the same
  directory never execute the same attempt twice.
* **Lease expiry** — a killed worker's claim requeues (attempt counter
  bumped) once its lease runs out, and the re-execution is bit-identical
  to what the dead worker would have produced.
* **Bounded attempts** — after ``max_attempts`` failures the task becomes a
  terminal failure carrying the original worker error (with the failing
  spec's JSON intact), surfaced as :class:`WorkerExecutionError`.

The in-process tests drive :class:`WorkQueue`/:func:`run_worker` directly
and always run.  The ``sched``-marked end-to-end test spawns real
``repro worker`` subprocesses (two workers, one SIGKILLed mid-task) and is
auto-skipped on single-CPU hosts unless ``REPRO_FORCE_SCHED`` is set.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.doctor import audit_store
from repro.errors import ConfigurationError, WorkerExecutionError
from repro.exec import (
    WorkQueue,
    build_execution_plan,
    execute_plan,
    run_specs_parallel,
    run_worker,
)
from repro.exec import queue as queue_module
from repro.exec.queue import _collect_outcomes
from repro.exec.scheduler import _ResultsPlane
from repro.experiments import ExperimentSpec
from repro.faults import injected_faults
from repro.simulation import runner as runner_mod
from repro.store import RunStore, fingerprint_spec

SEED = 2023


def _spec(name="rbma", seed=SEED, n_requests=200, n_nodes=10):
    return ExperimentSpec(
        algorithm={"name": name, "b": 3, "alpha": 4.0},
        traffic={"name": "zipf",
                 "params": {"n_nodes": n_nodes, "n_requests": n_requests}},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _failing_spec():
    return ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 40}},
        simulation={"checkpoint_positions": [999]},
        seed=5,
    )


def _enqueue_plan(queue, specs):
    plan = build_execution_plan(specs, store=False)
    for task in plan.tasks:
        queue.enqueue(task.to_payload())
    return plan


def _assert_series_identical(a, b):
    assert np.array_equal(a.series.requests, b.series.requests)
    assert np.array_equal(a.series.routing_cost, b.series.routing_cost)
    assert np.array_equal(a.series.reconfiguration_cost, b.series.reconfiguration_cost)
    assert np.array_equal(a.series.matched_fraction, b.series.matched_fraction)
    assert a.total_routing_cost == b.total_routing_cost


def _backdate_lease(queue, name):
    """Rewrite a claim's lease as long expired (simulating a dead worker)."""
    lease_path = queue.claimed_dir / f"{name}.lease"
    lease = json.loads(lease_path.read_text(encoding="utf-8"))
    lease["expires_at"] = time.time() - 60.0
    lease_path.write_text(json.dumps(lease), encoding="utf-8")


# --------------------------------------------------------------------------- #
# In-process failure semantics
# --------------------------------------------------------------------------- #


class TestLeaseProtocol:
    def test_opening_a_non_queue_directory_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a work queue"):
            WorkQueue.open(tmp_path)

    def test_claim_has_exactly_one_winner(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q")
        _enqueue_plan(queue, [_spec()])
        first = queue.claim("worker-a")
        assert first is not None
        name, payload = first
        assert queue.parse_name(name) == (payload["id"], 1)
        # The task file moved out of tasks/: a second claimant finds nothing.
        assert queue.claim("worker-b") is None
        assert (queue.claimed_dir / name).exists()
        assert (queue.claimed_dir / f"{name}.lease").exists()

    def test_two_tasks_two_claimants_disjoint_work(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q")
        _enqueue_plan(queue, [_spec(seed=1), _spec(seed=2)])
        a = queue.claim("worker-a")
        b = queue.claim("worker-b")
        assert a is not None and b is not None
        assert a[0] != b[0]
        assert queue.claim("worker-c") is None

    def test_live_lease_is_not_reaped(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", lease_seconds=60.0)
        _enqueue_plan(queue, [_spec()])
        queue.claim("worker-a")
        assert queue.requeue_expired() == 0
        assert queue.counts()["claimed"] == 1

    def test_dead_pid_reaps_without_waiting_for_the_clock(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", lease_seconds=3600.0)
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("worker-a")
        lease = json.loads(
            (queue.claimed_dir / f"{name}.lease").read_text(encoding="utf-8")
        )
        assert queue.requeue_expired(dead_pids={lease["pid"]}) == 1
        # Requeued with the attempt counter bumped.
        task_id, attempt = queue.parse_name(name)
        assert (queue.tasks_dir / queue.task_file_name(task_id, attempt + 1)).exists()


class TestCrashRecovery:
    def test_expired_lease_requeues_and_reexecution_is_bit_identical(self, tmp_path):
        spec = _spec()
        queue = WorkQueue.create(tmp_path / "q")
        plan = _enqueue_plan(queue, [spec])
        # A worker claims the task, then dies without completing it.
        name, _payload = queue.claim("ghost")
        _backdate_lease(queue, name)
        assert queue.requeue_expired() == 1
        assert queue.counts() == {"ready": 1, "claimed": 0, "results": 0, "failed": 0}
        # A healthy worker drains the requeued attempt in-process.
        stats = run_worker(queue.root, worker_id="healthy")
        assert stats["completed"] == 1
        [result_file] = sorted(queue.results_dir.glob("*.json"))
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["attempt"] == 2
        assert payload["worker"] == "healthy"
        # The requeued execution matches serial execution exactly.
        plane = _ResultsPlane(plan, "queue")
        _collect_outcomes(queue, plane, set())
        [result] = plane.assemble()
        assert result.extra["scheduler_backend"] == "queue"
        assert result.extra["attempts"] == 2
        [serial] = execute_plan(build_execution_plan([spec], store=False))
        _assert_series_identical(result, serial)

    def test_fail_after_a_reaper_requeued_the_claim_counts_one_requeue(self, tmp_path):
        worker_side = WorkQueue.create(tmp_path / "q")
        _enqueue_plan(worker_side, [_spec()])
        name, _ = worker_side.claim("slow")
        task_id, attempt = worker_side.parse_name(name)
        # A reaper (another participant) requeues the expired claim first.
        reaper = WorkQueue.open(worker_side.root)
        _backdate_lease(reaper, name)
        assert reaper.requeue_expired() == 1
        # The slow worker's own failure then loses the rename race.
        assert worker_side.fail(name, "boom", "RuntimeError") is False
        assert (reaper.counters.requeued, worker_side.counters.requeued) == (1, 0)
        assert sorted(p.name for p in worker_side.tasks_dir.glob("*.json")) == [
            worker_side.task_file_name(task_id, attempt + 1)
        ]
        assert worker_side.counts() == {"ready": 1, "claimed": 0, "results": 0, "failed": 0}

    def test_fail_after_a_reaper_retired_the_claim_keeps_its_record(self, tmp_path):
        worker_side = WorkQueue.create(tmp_path / "q", max_attempts=1)
        _enqueue_plan(worker_side, [_spec()])
        name, _ = worker_side.claim("slow")
        reaper = WorkQueue.open(worker_side.root)
        _backdate_lease(reaper, name)
        assert reaper.requeue_expired() == 1
        assert worker_side.fail(name, "boom", "RuntimeError") is False
        assert reaper.counters.terminal_failures == 1
        assert worker_side.counters.terminal_failures == 0
        [failed_file] = sorted(worker_side.failed_dir.glob("*.json"))
        failure = json.loads(failed_file.read_text(encoding="utf-8"))
        assert "lease expired" in failure["error"]
        assert failure["task"]["specs"][0]["seed"] == SEED

    def test_two_reapers_racing_to_retire_count_one_terminal_failure(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue.create(tmp_path / "q", max_attempts=1)
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("ghost")
        _backdate_lease(queue, name)
        first, second = WorkQueue.open(queue.root), WorkQueue.open(queue.root)
        read_json = queue_module.read_json

        def read_then_race(path, **kwargs):
            payload = read_json(path, **kwargs)
            monkeypatch.setattr(queue_module, "read_json", read_json)
            assert second.requeue_expired() == 1  # retires the task meanwhile
            return payload

        monkeypatch.setattr(queue_module, "read_json", read_then_race)
        assert first.requeue_expired() == 0
        assert (first.counters.terminal_failures, second.counters.terminal_failures) == (0, 1)
        assert queue.counts() == {"ready": 0, "claimed": 0, "results": 0, "failed": 1}

    def test_worker_fail_racing_a_reaper_keeps_the_first_record(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue.create(tmp_path / "q", max_attempts=1)
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("slow")
        _backdate_lease(queue, name)
        worker_side, reaper = WorkQueue.open(queue.root), WorkQueue.open(queue.root)
        read_json = queue_module.read_json

        def read_then_race(path, **kwargs):
            payload = read_json(path, **kwargs)
            monkeypatch.setattr(queue_module, "read_json", read_json)
            # The worker's own failure retires the task meanwhile.
            assert worker_side.fail(name, "boom", "RuntimeError") is False
            return payload

        monkeypatch.setattr(queue_module, "read_json", read_then_race)
        assert reaper.requeue_expired() == 0
        # One author: the worker published first, so its error stands and
        # only it counts; the reaper's "lease expired" record never lands.
        [failed_file] = sorted(queue.failed_dir.glob("*.json"))
        failure = json.loads(failed_file.read_text(encoding="utf-8"))
        assert (failure["error"], failure["error_type"]) == ("boom", "RuntimeError")
        assert (worker_side.counters.terminal_failures, reaper.counters.terminal_failures) == (1, 0)
        assert queue.counts() == {"ready": 0, "claimed": 0, "results": 0, "failed": 1}
        assert sorted(p.name for p in queue.failed_dir.iterdir()) == [failed_file.name]

    def test_a_retire_whose_record_write_fails_is_finished_by_the_next_pass(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_IO_RETRIES", "1")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        queue = WorkQueue.create(tmp_path / "q", max_attempts=1)
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("ghost")
        _backdate_lease(queue, name)
        with injected_faults("queue.result_write:osfail@1.0"):
            with pytest.raises(OSError):
                queue.requeue_expired()
        # Nothing was published, and the task is not lost: the claim stays
        # (its lease is gone), so the next pass retires it.
        assert queue.counts() == {"ready": 0, "claimed": 1, "results": 0, "failed": 0}
        assert queue.counters.terminal_failures == 0
        old = time.time() - 2 * queue.lease_seconds
        os.utime(queue.claimed_dir / name, (old, old))
        assert queue.requeue_expired() == 1
        assert queue.counts() == {"ready": 0, "claimed": 0, "results": 0, "failed": 1}
        assert queue.counters.terminal_failures == 1
        [failed_file] = sorted(queue.failed_dir.glob("*.json"))
        failure = json.loads(failed_file.read_text(encoding="utf-8"))
        assert "lease expired" in failure["error"]
        assert failure["task"]["specs"][0]["seed"] == SEED
        # No tmp sibling of the failed publish is left behind.
        assert sorted(p.name for p in queue.failed_dir.iterdir()) == [failed_file.name]

    def test_exhausted_attempts_surface_the_original_worker_error(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", max_attempts=2)
        plan = _enqueue_plan(queue, [_failing_spec()])
        stats = run_worker(queue.root, worker_id="doomed")
        assert stats["completed"] == 0
        assert stats["failed_attempts"] == 2
        assert queue.counts() == {"ready": 0, "claimed": 0, "results": 0, "failed": 1}
        [failed_file] = sorted(queue.failed_dir.glob("*.json"))
        failure = json.loads(failed_file.read_text(encoding="utf-8"))
        assert failure["attempts"] == 2
        assert failure["error_type"] == "WorkerExecutionError"
        assert "failing spec" in failure["error"]
        assert "checkpoint_positions reach 999" in failure["error"]
        # The task payload (with the failing spec's JSON) survives intact.
        assert failure["task"]["specs"][0]["seed"] == 5
        # Folding the terminal failure into a raise-mode results plane
        # surfaces the original WorkerExecutionError with full context.
        plane = _ResultsPlane(plan, "queue")
        with pytest.raises(WorkerExecutionError, match="checkpoint_positions reach 999"):
            _collect_outcomes(queue, plane, set())

    def test_expiry_of_the_last_attempt_is_a_terminal_failure(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q", max_attempts=1)
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("ghost")
        _backdate_lease(queue, name)
        assert queue.requeue_expired() == 1
        [failed_file] = sorted(queue.failed_dir.glob("*.json"))
        failure = json.loads(failed_file.read_text(encoding="utf-8"))
        assert failure["error_type"] == "WorkerExecutionError"
        assert "lease expired" in failure["error"]
        assert "failing spec" in failure["error"]
        assert failure["task"]["specs"][0]["seed"] == SEED

    def test_late_result_after_expiry_is_cleaned_up_not_requeued(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "q")
        _enqueue_plan(queue, [_spec()])
        name, _ = queue.claim("slow")
        task_id, _attempt = queue.parse_name(name)
        # The slow worker's result lands just as its lease expires.
        (queue.results_dir / f"{task_id}.json").write_text(
            json.dumps({"id": task_id, "attempt": 1, "outcomes": []}),
            encoding="utf-8",
        )
        _backdate_lease(queue, name)
        assert queue.requeue_expired() == 1
        assert queue.counts() == {"ready": 0, "claimed": 0, "results": 1, "failed": 0}


class TestWorkerCLI:
    def test_repro_worker_drains_a_queue(self, tmp_path, capsys):
        queue = WorkQueue.create(tmp_path / "q")
        plan = _enqueue_plan(queue, [_spec("rbma"), _spec("bma")])
        assert main(["worker", str(queue.root), "--worker-id", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out and "1 task(s) completed" in out
        plane = _ResultsPlane(plan, "queue")
        _collect_outcomes(queue, plane, set())
        results = plane.assemble()
        assert [r.algorithm for r in results] == ["rbma", "bma"]
        stats = json.loads(
            (queue.workers_dir / "cli-test.json").read_text(encoding="utf-8")
        )
        assert stats["completed"] == 1  # both specs share one lockstep task
        assert "solver_cache" in stats


# --------------------------------------------------------------------------- #
# End-to-end queue backend with real worker subprocesses
# --------------------------------------------------------------------------- #


@pytest.mark.sched
def test_queue_backend_survives_a_killed_worker_bit_identically(tmp_path):
    """The acceptance scenario: a figure-grid sweep on the ``queue`` backend
    with two local workers, one SIGKILLed mid-task, must requeue the lease
    and still produce results bit-identical to ``serial`` — with zero
    redundant SO-BMA solves in any worker (the plan pre-solved the demand).
    """
    algorithms = ("rbma", "bma", "so-bma", "oblivious")
    specs = [
        _spec(name, seed=seed, n_requests=4000, n_nodes=16)
        for seed in (11, 12)
        for name in algorithms
    ]
    serial = execute_plan(build_execution_plan(specs, store=False), backend="serial")

    queue_dir = tmp_path / "queue"
    holder = {}

    def _run():
        holder["results"] = execute_plan(
            build_execution_plan(specs, store=False),
            backend="queue",
            n_workers=2,
            queue_dir=str(queue_dir),
            lease_seconds=2.0,
            poll_interval=0.05,
            timeout=300.0,
        )

    thread = threading.Thread(target=_run)
    thread.start()
    # Kill the first worker we observe holding a lease, mid-task.
    killed = None
    deadline = time.time() + 60.0
    try:
        while killed is None and time.time() < deadline and thread.is_alive():
            for lease_path in sorted(queue_dir.glob("claimed/*.lease")):
                try:
                    lease = json.loads(lease_path.read_text(encoding="utf-8"))
                    os.kill(int(lease["pid"]), signal.SIGKILL)
                except (OSError, ValueError, KeyError, json.JSONDecodeError):
                    continue
                killed = lease
                break
            time.sleep(0.01)
    finally:
        thread.join(timeout=300.0)
    assert not thread.is_alive()
    assert killed is not None, "never observed a worker holding a lease"

    results = holder["results"]
    assert len(results) == len(specs)
    for seq, q in zip(serial, results):
        assert q.extra["scheduler_backend"] == "queue"
        _assert_series_identical(seq, q)
    # The killed worker's task requeued and re-ran: some result records a
    # second (or later) attempt.
    assert max(r.extra["attempts"] for r in results) >= 2
    # Zero redundant SO-BMA solves: every worker served its so-bma fits from
    # the plan's pre-solved rounds (imports seed the memo without a miss).
    snapshots = [
        json.loads(p.read_text(encoding="utf-8")).get("solver_cache", {})
        for p in sorted(queue_dir.glob("results/*.json"))
    ]
    assert snapshots, "no worker result payloads recorded"
    assert all(snap.get("misses", 0) == 0 for snap in snapshots)


@pytest.mark.sched
def test_queue_workers_write_their_stats_before_exiting(tmp_path):
    """The parent lets its workers exit on their own once the sweep is done:
    each spawned worker leaves its ``workers/<id>.json`` stats file, and no
    half-written tmp file is left behind by a worker killed mid-write."""
    queue_dir = tmp_path / "queue"
    specs = [_spec(name, seed=seed) for seed in (1, 2) for name in ("rbma", "bma")]
    results = execute_plan(
        build_execution_plan(specs, store=False),
        backend="queue",
        n_workers=2,
        queue_dir=str(queue_dir),
        poll_interval=0.05,
        timeout=120.0,
    )
    assert len(results) == len(specs)
    stats = sorted(p.name for p in (queue_dir / "workers").iterdir())
    assert stats == ["local-0.json", "local-1.json"]
    assert not list(queue_dir.rglob(".*.tmp-*"))


@pytest.mark.sched
def test_queue_backend_with_a_run_store(tmp_path, monkeypatch):
    """Queue workers write the store themselves: every cell is stored
    exactly once, the parent lists every worker's entry with no index file
    to rebuild, and a warm serial rerun serves every cell from disk
    without simulating."""
    specs = [_spec(name, seed=seed) for seed in (1, 2) for name in ("rbma", "bma")]
    serial = run_specs_parallel(specs, n_workers=1, store=False)
    store = RunStore(tmp_path / "store")
    results = run_specs_parallel(
        specs, n_workers=2, store=store, backend="queue", queue_dir=str(tmp_path / "queue")
    )
    for seq, q in zip(serial, results):
        assert q.extra["scheduler_backend"] == "queue"
        _assert_series_identical(seq, q)

    fingerprints = {fingerprint_spec(spec) for spec in specs}
    assert len(store) == len(fingerprints)
    assert {e.fingerprint for e in store.list_runs()} == fingerprints
    assert not (tmp_path / "store" / "index.json").exists()
    for fp in fingerprints:
        assert len(store.get_payload(fp)["history"]) == 1

    def _boom(*_args, **_kwargs):
        raise AssertionError("simulated despite a warm store")

    monkeypatch.setattr(runner_mod, "run_simulation", _boom)
    monkeypatch.setattr(ExperimentSpec, "build_trace", _boom)
    warm = run_specs_parallel(specs, n_workers=1, store=store, backend="serial")
    assert [w.to_dict() for w in warm] == [q.to_dict() for q in results]
    assert store.counters.hits == len(specs)
    assert audit_store(store).clean()
