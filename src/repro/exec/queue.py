"""File-based pull work queue: tasks as JSON files, leases as atomic renames.

One queue directory is the complete coordination state — no broker, no
sockets — so any process that can see the filesystem can help drain it
(``repro worker <queue-dir>``):

``tasks/<id>.a<NN>.json``
    A ready task (one :meth:`~repro.exec.plan.PlanTask.to_payload`); the
    attempt counter lives in the *filename*, so claiming is one atomic
    ``os.replace`` into ``claimed/`` — exactly one claimant can win — and
    requeueing is one atomic rename back with the counter bumped.
``claimed/<name>`` + ``claimed/<name>.lease``
    A leased task.  The lease records the worker and an expiry time; the
    executing worker refreshes it from a heartbeat thread, so only a dead
    (or wedged) worker lets its lease expire.  :meth:`WorkQueue.requeue_expired`
    — run by every participant — moves the claims :meth:`WorkQueue.stale_claims`
    finds expired back to ``tasks/`` until ``max_attempts`` is exhausted,
    then records a terminal failure.
``results/<id>.json`` / ``failed/<id>.json``
    The results plane: per-spec outcomes (worker-stamped with
    ``scheduler_backend="queue"``/``attempts`` provenance and, when the
    queue carries a store root, already written to the run store by the
    worker) or the terminal error with the failing spec's JSON intact
    (published once: the first participant to retire a claim writes it).

Workers execute whole task groups in lockstep (shared trace built once per
task) and seed their solver memo from the plan's pre-solved SO-BMA rounds,
so results are bit-identical to serial execution — including after a worker
is killed mid-task and its lease requeues.

Failure semantics: queue IO goes through :mod:`repro.ioutil` (bounded
retry with backoff for transient ``OSError``, fault-injection hooks from
:mod:`repro.faults` at the ``queue.*``/``worker.crash`` sites), every
swallowed anomaly is counted on :class:`QueueCounters` and logged at debug
level (``repro.exec.queue``), and :meth:`WorkQueue.requeue_expired` also
reaps stale ``.*.tmp-*`` files left by writers killed mid-rename.
``repro doctor --queue DIR`` audits all of it.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import ConfigurationError, SimulationError, WorkerExecutionError
from ..faults import fault_point
from ..ioutil import atomic_write_json, publish_json, read_json, reap_stale_tmp
from ..simulation.results import RunResult
from ..store.run_store import resolve_store
from .plan import ExecutionPlan, PlanTask

__all__ = [
    "QueueCounters",
    "WorkQueue",
    "run_worker",
    "run_queue_backend",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_POLL_INTERVAL",
]

logger = logging.getLogger(__name__)

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_POLL_INTERVAL = 0.2

_META_NAME = "queue.json"
_STOP_NAME = "stop"

#: Seconds the parent waits, after requesting a stop, for its workers to exit
#: on their own before terminating them.
_STOP_GRACE_SECONDS = 5.0


@dataclass
class QueueCounters:
    """Per-queue-instance tallies of every anomaly the queue absorbs.

    The queue's failure handling is deliberately non-fatal (a lost race is
    normal, a torn read is retried next poll), but *silent* absorption
    made the paths untestable and invisible.  Every absorbed event now
    counts here and logs at debug level; ``repro doctor`` and worker exit
    summaries report the totals.
    """

    claim_failures: int = 0  #: OSError renaming a task into claimed/
    unreadable_tasks: int = 0  #: claimed task payloads that failed to parse
    lease_read_failures: int = 0  #: torn/unreadable lease files
    lease_write_failures: int = 0  #: lease writes that failed past retries
    heartbeat_failures: int = 0  #: heartbeat renewals absorbed by the thread
    torn_results: int = 0  #: result/failure files unreadable mid-scan
    late_results: int = 0  #: expired claims whose result had already landed
    requeued: int = 0  #: tasks requeued with a bumped attempt counter
    terminal_failures: int = 0  #: tasks failed past max_attempts
    tmp_reaped: int = 0  #: stale tmp files removed by requeue_expired

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


def _lease_expired_error(attempt: int, task_payload: Optional[Dict[str, Any]]) -> str:
    """The terminal error of a task whose last lease expired without a result."""
    specs_json = (
        json.dumps(task_payload.get("specs"), sort_keys=True, default=repr)
        if task_payload
        else "<unreadable>"
    )
    return (
        f"worker lease expired after {attempt} attempt(s) "
        f"without a result; failing spec: {specs_json}"
    )


class WorkQueue:
    """One shared queue directory (see module docstring)."""

    #: Tmp siblings older than this are orphans from killed writers.
    TMP_MAX_AGE_SECONDS = 3600.0

    def __init__(self, root: Path, meta: Mapping[str, Any]):
        self.root = Path(root)
        self.meta = dict(meta)
        self.tasks_dir = self.root / "tasks"
        self.claimed_dir = self.root / "claimed"
        self.results_dir = self.root / "results"
        self.failed_dir = self.root / "failed"
        self.workers_dir = self.root / "workers"
        self.logs_dir = self.root / "logs"
        #: The directories a task file moves through; requeue_expired reaps
        #: stale tmp files in them.
        self.task_dirs = (self.tasks_dir, self.claimed_dir, self.results_dir, self.failed_dir)
        self.counters = QueueCounters()

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(
        cls,
        root,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = 3,
        on_error: str = "raise",
        store_root: Optional[str] = None,
    ) -> "WorkQueue":
        """Initialise a queue directory (idempotent on an empty/own dir)."""
        if lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        if max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
        meta = {
            "version": 1,
            "lease_seconds": float(lease_seconds),
            "max_attempts": int(max_attempts),
            "on_error": on_error,
            "store": store_root,
        }
        queue = cls(Path(root), meta)
        for d in (*queue.task_dirs, queue.workers_dir, queue.logs_dir):
            d.mkdir(parents=True, exist_ok=True)
        atomic_write_json(queue.root / _META_NAME, meta, site="queue.task_write")
        return queue

    @classmethod
    def open(cls, root) -> "WorkQueue":
        """Attach to an existing queue directory."""
        root = Path(root)
        try:
            meta = json.loads((root / _META_NAME).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(
                f"{root} is not a work queue (no {_META_NAME}); "
                "create one by running a sweep with the 'queue' scheduler backend"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable queue metadata in {root}: {exc}") from exc
        return cls(root, meta)

    @property
    def lease_seconds(self) -> float:
        return float(self.meta.get("lease_seconds", DEFAULT_LEASE_SECONDS))

    @property
    def max_attempts(self) -> int:
        return int(self.meta.get("max_attempts", 3))

    @property
    def on_error(self) -> str:
        return str(self.meta.get("on_error", "raise"))

    @property
    def store_root(self) -> Optional[str]:
        return self.meta.get("store")

    # -- naming ----------------------------------------------------------

    @staticmethod
    def task_file_name(task_id: str, attempt: int) -> str:
        return f"{task_id}.a{attempt:02d}.json"

    @staticmethod
    def parse_name(name: str) -> Tuple[str, int]:
        """``"t0003.a02.json"`` -> ``("t0003", 2)``."""
        stem = name[: -len(".json")] if name.endswith(".json") else name
        task_id, sep, attempt = stem.rpartition(".a")
        if not sep:
            raise ConfigurationError(f"malformed task file name: {name!r}")
        return task_id, int(attempt)

    # -- producer side ---------------------------------------------------

    def enqueue(self, payload: Mapping[str, Any]) -> str:
        """Add a task (attempt 1); returns the task file name."""
        name = self.task_file_name(str(payload["id"]), 1)
        atomic_write_json(self.tasks_dir / name, dict(payload), site="queue.task_write")
        return name

    def request_stop(self) -> None:
        """Ask every worker (even ``--keep-alive`` ones) to exit."""
        (self.root / _STOP_NAME).touch()

    def stop_requested(self) -> bool:
        return (self.root / _STOP_NAME).exists()

    # -- worker side -----------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Atomically claim one ready task, or ``None`` when none is ready.

        ``os.replace`` into ``claimed/`` has exactly one winner per file —
        the duplicate-claim protection the whole scheme rests on.
        """
        try:
            names = sorted(os.listdir(self.tasks_dir))
        except FileNotFoundError:
            return None
        for name in names:
            if not name.endswith(".json"):
                continue
            target = self.claimed_dir / name
            try:
                fault_point("queue.claim")
                os.replace(self.tasks_dir / name, target)
            except FileNotFoundError:
                continue  # lost the race for this one; try the next
            except OSError as exc:
                self.counters.claim_failures += 1
                logger.debug("claim rename failed for %s: %s", name, exc)
                continue
            try:
                self._write_lease(name, worker_id)
            except OSError as exc:
                # We still hold the claim; the heartbeat thread will keep
                # retrying the lease, and a missing lease gets one grace
                # period in requeue_expired before the claim is reaped.
                self.counters.lease_write_failures += 1
                logger.debug("initial lease write failed for %s: %s", name, exc)
            try:
                payload = read_json(target, site="queue.task_read")
            except (OSError, json.JSONDecodeError) as exc:
                self.counters.unreadable_tasks += 1
                logger.debug("unreadable task payload %s: %s", name, exc)
                self.fail(
                    name,
                    f"unreadable task payload {name!r}: {exc}",
                    type(exc).__name__,
                )
                continue
            return name, payload
        return None

    def _lease_path(self, name: str) -> Path:
        return self.claimed_dir / f"{name}.lease"

    def _write_lease(self, name: str, worker_id: str) -> None:
        atomic_write_json(
            self._lease_path(name),
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "expires_at": time.time() + self.lease_seconds,
            },
            site="queue.heartbeat",
        )

    def renew(self, name: str, worker_id: str) -> bool:
        """Refresh a held lease; ``False`` when the claim is gone (requeued)."""
        if not (self.claimed_dir / name).exists():
            return False
        self._write_lease(name, worker_id)
        return True

    def complete(self, name: str, payload: Mapping[str, Any]) -> None:
        """Publish a task's result and release the claim."""
        task_id, _attempt = self.parse_name(name)
        atomic_write_json(
            self.results_dir / f"{task_id}.json",
            dict(payload),
            site="queue.result_write",
        )
        self._clear_claim(name)

    def fail(self, name: str, message: str, error_type: str) -> bool:
        """Record a failed attempt: requeue with the counter bumped, or —
        once ``max_attempts`` is exhausted — publish the terminal failure.
        Returns ``True`` when this call requeued the task for another
        attempt (not when a reaper had already moved the claim)."""
        outcome = self._requeue_or_retire(name, error_type, lambda *_: message)
        return outcome is True

    def _requeue_or_retire(
        self,
        name: str,
        error_type: str,
        describe: Callable[[int, Optional[Dict[str, Any]]], str],
    ) -> Optional[bool]:
        """Move a failed claim on: back to ``tasks/`` as attempt ``N+1``, or —
        once ``max_attempts`` is exhausted — to a ``failed/`` record whose
        error is ``describe(attempt, task payload)``.

        Returns ``True`` when this call requeued the task, ``False`` when it
        recorded the terminal failure, and ``None`` when another participant
        moved or retired the claim first (this call lost the race and counts
        nothing).  A retire has one winner: the first participant to publish
        the ``failed/`` record (:func:`~repro.ioutil.publish_json` never
        overwrites), and only it counts.  The claim is removed only after
        the record is out, so a participant that dies (or whose record write
        fails past the retries) in between leaves the claim for the next
        :meth:`requeue_expired` pass, which retires it or, finding the
        record, just removes it.
        """
        task_id, attempt = self.parse_name(name)
        claim_path = self.claimed_dir / name
        try:
            if attempt < self.max_attempts:
                try:
                    os.replace(
                        claim_path, self.tasks_dir / self.task_file_name(task_id, attempt + 1)
                    )
                except FileNotFoundError:
                    return self._lost_race(name)
                self.counters.requeued += 1
                return True
            try:
                task_payload = read_json(claim_path, site="queue.task_read")
            except FileNotFoundError:
                return self._lost_race(name)
            except (OSError, json.JSONDecodeError) as exc:
                self.counters.unreadable_tasks += 1
                logger.debug("claim payload for %s unreadable: %s", name, exc)
                task_payload = None
            published = publish_json(
                self.failed_dir / f"{task_id}.json",
                {
                    "id": task_id,
                    "attempts": attempt,
                    "error": describe(attempt, task_payload),
                    "error_type": error_type,
                    "task": task_payload,
                },
                site="queue.result_write",
            )
            claim_path.unlink(missing_ok=True)
            if not published:
                return self._lost_race(name)
            self.counters.terminal_failures += 1
            return False
        finally:
            self._lease_path(name).unlink(missing_ok=True)

    @staticmethod
    def _lost_race(name: str) -> None:
        logger.debug("%s was already moved by another participant", name)
        return None

    def _clear_claim(self, name: str) -> None:
        (self.claimed_dir / name).unlink(missing_ok=True)
        self._lease_path(name).unlink(missing_ok=True)

    # -- shared maintenance ---------------------------------------------

    def stale_claims(self, dead_pids: Optional[Set[int]] = None) -> List[Tuple[str, str]]:
        """``(name, reason)`` for every stale file in ``claimed/``.

        The one expiry rule: :meth:`requeue_expired` acts on exactly this
        list and ``repro doctor`` reports it.  A ``.lease`` file whose claim
        is gone is orphaned.  A claim has expired when its lease's expiry
        time has passed or its worker's pid is in ``dead_pids``; a claim
        whose lease is missing or torn (claim and lease writes are two
        steps) gets one lease period, counted from the claim's mtime.
        """
        try:
            names = sorted(os.listdir(self.claimed_dir))
        except FileNotFoundError:
            return []
        now = time.time()
        stale: List[Tuple[str, str]] = []
        for name in names:
            if name.endswith(".lease"):
                if not (self.claimed_dir / name[: -len(".lease")]).exists():
                    stale.append((name, "lease file whose claim is gone (already requeued or completed)"))
            elif name.endswith(".json"):
                reason = self._expiry(name, now, dead_pids)
                if reason:
                    stale.append((name, reason))
        return stale

    def _expiry(self, name: str, now: float, dead_pids: Optional[Set[int]]) -> str:
        """Why the claim ``name`` has expired, or ``""`` while it is live."""
        try:
            lease = json.loads(self._lease_path(name).read_text(encoding="utf-8"))
            expires_at, pid = float(lease["expires_at"]), lease.get("pid")
        except FileNotFoundError:
            missing = "no lease file"
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            self.counters.lease_read_failures += 1
            logger.debug("unreadable lease for %s: %s", name, exc)
            missing = f"an unreadable lease file ({exc})"
        else:
            if expires_at < now:
                return f"lease expired {now - expires_at:.0f}s ago without a result"
            if dead_pids is not None and pid in dead_pids:
                return f"its worker (pid {pid}) is dead"
            return ""
        try:
            age = now - (self.claimed_dir / name).stat().st_mtime
        except OSError:
            return ""  # moved on meanwhile
        return f"claim is {age:.0f}s old with {missing}" if age > self.lease_seconds else ""

    def requeue_expired(self, dead_pids: Optional[Set[int]] = None) -> int:
        """Act on :meth:`stale_claims`; returns the claims touched.

        An orphaned lease is removed.  An expired claim whose result already
        landed (late completion after a lease expiry race) is simply cleaned
        up; otherwise the task requeues with its attempt counter bumped, or
        becomes a terminal failure once ``max_attempts`` is exhausted.  Also
        reaps stale tmp files.  Safe to run concurrently from any
        participant: every transition is a single atomic rename or
        first-writer-wins publish, and losing a race is skipped.
        """
        reaped = reap_stale_tmp(self.task_dirs, self.TMP_MAX_AGE_SECONDS)
        if reaped:
            self.counters.tmp_reaped += len(reaped)
            logger.debug("reaped %d stale tmp file(s): %s", len(reaped), reaped)
        touched = 0
        for name, _reason in self.stale_claims(dead_pids):
            if name.endswith(".lease"):
                (self.claimed_dir / name).unlink(missing_ok=True)
                continue
            task_id = self.parse_name(name)[0]
            if (self.results_dir / f"{task_id}.json").exists():
                self._clear_claim(name)
                self.counters.late_results += 1
                logger.debug("late result for %s: claim cleaned up", name)
                touched += 1
                continue
            if self._requeue_or_retire(
                name, "WorkerExecutionError", _lease_expired_error
            ) is not None:
                touched += 1
        return touched

    # -- introspection ---------------------------------------------------

    def _count(self, directory: Path, suffix: str = ".json") -> int:
        try:
            return sum(1 for n in os.listdir(directory) if n.endswith(suffix))
        except FileNotFoundError:
            return 0

    def counts(self) -> Dict[str, int]:
        return {
            "ready": self._count(self.tasks_dir),
            "claimed": self._count(self.claimed_dir),
            "results": self._count(self.results_dir),
            "failed": self._count(self.failed_dir),
        }

    def is_drained(self) -> bool:
        """No ready and no claimed work (results/failures may remain)."""
        return self._count(self.tasks_dir) == 0 and self._count(self.claimed_dir) == 0


class _Heartbeat(threading.Thread):
    """Refreshes a claim's lease while the task executes.

    A SIGKILLed worker takes its heartbeat thread with it, so the lease
    genuinely expires and the task requeues — which is exactly the crash
    semantics the queue promises.
    """

    def __init__(self, queue: WorkQueue, name: str, worker_id: str):
        super().__init__(daemon=True)
        self.queue = queue
        self.name = name
        self.worker_id = worker_id
        self.interval = max(0.05, queue.lease_seconds / 3.0)
        # Not named ``_stop``: Thread.join() calls a private ``_stop()``.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                if not self.queue.renew(self.name, self.worker_id):
                    return  # claim was reaped; the result write will be a late no-op
            except OSError as exc:  # transient FS hiccup: retry next beat
                self.queue.counters.heartbeat_failures += 1
                logger.debug("heartbeat renewal failed for %s: %s", self.name, exc)
                continue

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def _process_claim(
    queue: WorkQueue,
    name: str,
    payload: Mapping[str, Any],
    worker_id: str,
    store,
) -> bool:
    """Execute one claimed task; returns ``True`` on a published result."""
    from ..matching.static_solver import solver_cache_info
    from .runtime import TaskPolicy, run_task, stamp_provenance

    fault_point("worker.crash")
    task_id, attempt = queue.parse_name(name)
    heartbeat = _Heartbeat(queue, name, worker_id)
    heartbeat.start()
    try:
        task = PlanTask.from_payload(payload)
        outcomes = run_task(task, TaskPolicy(on_error=queue.on_error))
        entries: List[Dict[str, Any]] = []
        for index, fingerprint, (outcome, _attempts) in zip(
            task.indices, task.fingerprints, outcomes
        ):
            if isinstance(outcome, RunResult):
                stamped = stamp_provenance(outcome, "queue", attempt)
                if store is not None and fingerprint is not None:
                    if not store.contains(fingerprint):
                        store.put(stamped, fingerprint=fingerprint)
                entries.append({"index": index, "result": stamped.to_dict()})
            else:
                entries.append(
                    {"index": index, "error": outcome.to_dict(), "attempts": attempt}
                )
        fault_point("worker.crash")
        queue.complete(
            name,
            {
                "id": task_id,
                "attempt": attempt,
                "worker": worker_id,
                "outcomes": entries,
                "solver_cache": solver_cache_info(),
            },
        )
        return True
    except Exception as exc:  # noqa: BLE001 - recorded, then requeue/terminal
        queue.fail(name, str(exc), type(exc).__name__)
        return False
    finally:
        heartbeat.stop()


def run_worker(
    queue_dir,
    worker_id: Optional[str] = None,
    poll_interval: Optional[float] = None,
    max_tasks: Optional[int] = None,
    keep_alive: bool = False,
) -> Dict[str, Any]:
    """Drain tasks from a queue directory until it is empty (or forever).

    This is the body of the ``repro worker <queue-dir>`` CLI, and is also
    callable in-process (the parent uses it to drain a queue whose workers
    all died).  Exits when the queue is drained unless ``keep_alive`` is
    set, in which case it keeps polling until a stop is requested — the
    mode for long-lived workers on other hosts sharing the directory.
    Returns a stats dict (also written to ``workers/<id>.json``).
    """
    queue = WorkQueue.open(queue_dir)
    worker = worker_id or f"worker-{os.getpid()}"
    poll = DEFAULT_POLL_INTERVAL if poll_interval is None else max(0.01, poll_interval)
    store = resolve_store(queue.store_root) if queue.store_root else None
    stats: Dict[str, Any] = {"worker": worker, "completed": 0, "failed_attempts": 0}
    while True:
        if queue.stop_requested():
            break
        queue.requeue_expired()
        claim = queue.claim(worker)
        if claim is None:
            if max_tasks is not None and stats["completed"] >= max_tasks:
                break
            if not keep_alive and queue.is_drained():
                break
            time.sleep(poll)
            continue
        name, payload = claim
        if _process_claim(queue, name, payload, worker, store):
            stats["completed"] += 1
        else:
            stats["failed_attempts"] += 1
        if max_tasks is not None and stats["completed"] >= max_tasks:
            break
    from ..matching.static_solver import solver_cache_info

    stats["solver_cache"] = solver_cache_info()
    stats["queue"] = queue.counters.to_dict()
    try:
        atomic_write_json(queue.workers_dir / f"{worker}.json", stats)
    except OSError as exc:  # pragma: no cover - stats are best-effort
        logger.debug("worker stats write failed for %s: %s", worker, exc)
    return stats


# --------------------------------------------------------------------------- #
# Parent-side scheduler backend
# --------------------------------------------------------------------------- #


def _spawn_worker(root: Path, k: int, poll: float):
    """Launch one ``repro worker`` subprocess against the queue directory."""
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    log = open(root / "logs" / f"worker-{k}.log", "ab")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            str(root),
            "--worker-id",
            f"local-{k}",
            "--poll-interval",
            str(poll),
        ],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    return proc, log


def _collect_outcomes(
    queue: WorkQueue, plane, done: Set[str]
) -> bool:
    """Fold new result/failure files into the results plane; True if any."""
    progressed = False
    for path in sorted(queue.results_dir.glob("*.json")):
        task_id = path.stem
        if task_id in done:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            # Appeared mid-scan; the next poll sees the finished file.
            queue.counters.torn_results += 1
            logger.debug("torn result file %s: %s", path.name, exc)
            continue
        for entry in payload.get("outcomes", []):
            index = int(entry["index"])
            if "result" in entry:
                plane.deliver(
                    index,
                    RunResult.from_dict(entry["result"]),
                    payload.get("attempt", 1),
                    merge=True,
                )
            else:
                error = entry.get("error", {})
                plane.failure(
                    index,
                    error.get("message", "worker reported an unspecified error"),
                    error.get("error_type", "WorkerExecutionError"),
                    entry.get("attempts", payload.get("attempt", 1)),
                )
        done.add(task_id)
        progressed = True
    for path in sorted(queue.failed_dir.glob("*.json")):
        task_id = path.stem
        if task_id in done:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            queue.counters.torn_results += 1
            logger.debug("torn failure file %s: %s", path.name, exc)
            continue
        task_payload = payload.get("task") or {}
        indices = [int(i) for i in task_payload.get("indices", [])]
        message = payload.get("error", "task failed without error context")
        error_type = payload.get("error_type", "WorkerExecutionError")
        attempts = int(payload.get("attempts", 1))
        if not indices:
            raise WorkerExecutionError(message)
        for index in indices:
            plane.failure(index, message, error_type, attempts)
        done.add(task_id)
        progressed = True
    return progressed


def run_queue_backend(plan: ExecutionPlan, options, plane) -> None:
    """Execute a plan's tasks through a work-queue directory.

    Enqueues every task, launches ``options.workers`` local worker
    subprocesses, and pumps the results plane until every task is accounted
    for.  Leases of workers the parent knows to be dead requeue immediately
    (no need to wait out the expiry clock); if *every* worker dies with
    work still outstanding, the parent drains the remainder in-process so
    the sweep always terminates.  With ``options.queue_dir`` unset a
    temporary directory is used and removed afterwards; pointing it at a
    shared path lets independently launched ``repro worker`` processes (or
    other hosts) help drain the same sweep.
    """
    if not plan.tasks:
        return
    own_dir = options.queue_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-queue-"))
        if own_dir
        else Path(options.queue_dir)
    )
    lease = options.lease_seconds if options.lease_seconds else DEFAULT_LEASE_SECONDS
    poll = options.poll_interval if options.poll_interval else DEFAULT_POLL_INTERVAL
    queue = WorkQueue.create(
        root,
        lease_seconds=lease,
        max_attempts=options.max_attempts,
        on_error=plan.on_error,
        store_root=str(plan.store.root) if plan.store is not None else None,
    )
    expected = {task.task_id for task in plan.tasks}
    for task in plan.tasks:
        queue.enqueue(task.to_payload())
    workers = [_spawn_worker(root, k, poll) for k in range(options.workers)]
    done: Set[str] = set()
    deadline = time.time() + options.timeout if options.timeout else None
    try:
        while done != expected:
            if deadline is not None and time.time() > deadline:
                raise SimulationError(
                    f"queue execution timed out after {options.timeout}s "
                    f"({len(done)}/{len(expected)} tasks done; queue at {root})"
                )
            dead = {proc.pid for proc, _log in workers if proc.poll() is not None}
            queue.requeue_expired(dead_pids=dead or None)
            progressed = _collect_outcomes(queue, plane, done)
            if done == expected:
                break
            if workers and len(dead) == len(workers):
                # Every worker died with work outstanding: finish in-process.
                run_worker(
                    root,
                    worker_id=f"parent-{os.getpid()}",
                    poll_interval=min(poll, 0.05),
                )
                _collect_outcomes(queue, plane, done)
                if done != expected:
                    missing = sorted(expected - done)
                    raise SimulationError(
                        f"queue at {root} lost track of tasks {missing}; "
                        "no result, failure, or pending file remains"
                    )
                break
            if not progressed:
                time.sleep(min(poll, 0.1))
    finally:
        # Workers exit on their own once they see the stop file (or a
        # drained queue), after writing their stats; only a worker still
        # busy after the grace period is terminated.
        queue.request_stop()
        grace_ends = time.time() + _STOP_GRACE_SECONDS
        for proc, log in workers:
            try:
                proc.wait(timeout=max(0.0, grace_ends - time.time()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    proc.kill()
                    proc.wait(timeout=5.0)
            log.close()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)
