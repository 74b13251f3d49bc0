"""``repro doctor``: audit (and repair) run-store and work-queue directories.

Both the store and the queue are plain directories of JSON files mutated by
atomic renames, so every crash mode leaves a recognisable artefact behind:

* a writer killed between the tmp write and the rename leaves a stale
  ``.<name>.tmp-<pid>`` sibling;
* a queue worker killed after claiming leaves an expired lease (or an
  orphaned ``.lease`` file whose claim was already requeued);
* torn or bit-rotted entry files fail JSON parsing or their blake2b
  checksum;
* half-written task files in a queue cannot be parsed as task payloads.

:func:`audit_store` and :func:`audit_queue` walk a directory and report
every such artefact as a :class:`Finding`; with ``fix=True`` the safe
repairs run inline (reap stale tmp files, quarantine corrupt store entries,
drop orphaned leases, requeue expired claims, remove a legacy store index) and
each finding records whether it was fixed.  The CLI front-end is
``repro doctor [--store DIR] [--queue DIR] [--fix]``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .ioutil import reap_stale_tmp, stale_tmp_files
from .store.run_store import RunStore, _checksum_ok

__all__ = ["Finding", "DoctorReport", "audit_store", "audit_queue"]


@dataclass
class Finding:
    """One anomaly the doctor found (and possibly repaired)."""

    area: str  #: "store" or "queue"
    kind: str  #: machine-readable anomaly class (e.g. "stale_tmp")
    path: str  #: the offending file, relative to the audited root
    detail: str  #: human-readable explanation
    fixable: bool  #: whether ``--fix`` knows a safe repair
    fixed: bool = False  #: whether the repair ran (only with ``fix=True``)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "area": self.area,
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "fixable": self.fixable,
            "fixed": self.fixed,
        }


@dataclass
class DoctorReport:
    """Everything one audit pass found, plus context for the CLI."""

    root: str
    area: str
    findings: List[Finding] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def clean(self) -> bool:
        """True when nothing is wrong (or everything found was repaired)."""
        return all(f.fixed for f in self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "area": self.area,
            "clean": self.clean(),
            "findings": [f.to_dict() for f in self.findings],
            "info": dict(self.info),
        }


def _rel(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:  # pragma: no cover - defensive: outside the root
        return str(path)


def _audit_tmp(
    report: DoctorReport,
    directories: List[Path],
    root: Path,
    max_age_seconds: float,
    fix: bool,
) -> None:
    stale = stale_tmp_files(directories, max_age_seconds)
    if fix and stale:
        reap_stale_tmp(directories, max_age_seconds)
    for path in stale:
        report.findings.append(
            Finding(
                area=report.area,
                kind="stale_tmp",
                path=_rel(path, root),
                detail=(
                    "orphaned tmp file from a writer killed mid-rename "
                    f"(older than {max_age_seconds:g}s)"
                ),
                fixable=True,
                fixed=fix,
            )
        )


# --------------------------------------------------------------------------- #
# Run store
# --------------------------------------------------------------------------- #


def audit_store(
    store: RunStore,
    fix: bool = False,
    tmp_max_age_seconds: Optional[float] = None,
) -> DoctorReport:
    """Audit a run store: stale tmp files, corrupt entries, a legacy index.

    With ``fix=True``: reaps the tmp files, quarantines the corrupt entries
    (via the store's own quarantine path, so counters and warnings behave
    exactly as they would mid-run), and removes an ``index.json`` left by
    an older store format (:meth:`RunStore.reindex`).
    """
    max_age = (
        store.TMP_MAX_AGE_SECONDS if tmp_max_age_seconds is None else tmp_max_age_seconds
    )
    report = DoctorReport(root=str(store.root), area="store")
    _audit_tmp(report, [store.root], store.root, max_age, fix)

    entries_on_disk = 0
    for path in sorted(store.runs_dir.glob("*/*.json")) if store.runs_dir.exists() else []:
        problem: Optional[str] = None
        payload: Optional[Dict[str, Any]] = None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problem = f"unreadable entry ({exc})"
        if payload is not None:
            fingerprint = payload.get("fingerprint")
            if fingerprint != path.stem:
                problem = (
                    f"fingerprint field {fingerprint!r} does not match "
                    f"file name {path.stem!r}"
                )
            elif not _checksum_ok(payload):
                problem = "payload checksum mismatch (bit rot or partial write)"
        if problem is None:
            entries_on_disk += 1
            continue
        fixed = False
        if fix:
            fixed = store._quarantine(path, f"doctor: {problem}") is not None
        report.findings.append(
            Finding(
                area="store",
                kind="corrupt_entry",
                path=_rel(path, store.root),
                detail=problem,
                fixable=True,
                fixed=fixed,
            )
        )

    if store.legacy_index_path.exists():
        if fix:
            store.reindex()
        report.findings.append(
            Finding(
                area="store",
                kind="legacy_index",
                path=_rel(store.legacy_index_path, store.root),
                detail="index.json left by an older store format",
                fixable=True,
                fixed=fix,
            )
        )

    quarantined = (
        sorted(p.name for p in store.quarantine_dir.iterdir())
        if store.quarantine_dir.is_dir()
        else []
    )
    report.info = {
        "entries": entries_on_disk,
        "quarantined": quarantined,
        "counters": store.counters.to_dict(),
    }
    return report


# --------------------------------------------------------------------------- #
# Work queue
# --------------------------------------------------------------------------- #


def _unparseable(path: Path) -> Optional[str]:
    """The parse problem for a JSON file, or ``None`` when it is healthy."""
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return str(exc)
    return None


def audit_queue(queue, fix: bool = False) -> DoctorReport:
    """Audit a work queue: orphaned leases, expired claims, torn files.

    ``queue`` is a :class:`~repro.exec.queue.WorkQueue`.  With ``fix=True``
    the repair is the queue's own maintenance pass —
    :meth:`~repro.exec.queue.WorkQueue.requeue_expired` — which also reaps
    stale tmp files, plus removal of orphaned lease files; half-written
    task files are *reported* but never deleted (they may carry the only
    copy of a task), and terminal decisions stay with ``requeue_expired``.
    """
    report = DoctorReport(root=str(queue.root), area="queue")
    now = time.time()

    _audit_tmp(
        report,
        [queue.tasks_dir, queue.claimed_dir, queue.results_dir, queue.failed_dir],
        queue.root,
        queue.TMP_MAX_AGE_SECONDS,
        fix=False,  # requeue_expired (below) is the fixer; avoid double-reap
    )

    claims: List[str] = []
    leases: List[str] = []
    if queue.claimed_dir.is_dir():
        for name in sorted(p.name for p in queue.claimed_dir.iterdir()):
            if name.endswith(".lease"):
                leases.append(name)
            elif name.endswith(".json"):
                claims.append(name)

    orphaned = [
        name for name in leases if name[: -len(".lease")] not in set(claims)
    ]
    expired: List[str] = []
    for name in claims:
        lease_path = queue.claimed_dir / f"{name}.lease"
        problem: Optional[str] = None
        try:
            lease = json.loads(lease_path.read_text(encoding="utf-8"))
            if float(lease.get("expires_at", 0)) < now:
                problem = (
                    f"lease expired {now - float(lease.get('expires_at', 0)):.0f}s "
                    "ago without a result"
                )
        except FileNotFoundError:
            try:
                age = now - (queue.claimed_dir / name).stat().st_mtime
            except OSError:  # pragma: no cover - vanished mid-audit
                continue
            if age > queue.lease_seconds:
                problem = f"claim is {age:.0f}s old and has no lease file"
        except (OSError, json.JSONDecodeError) as exc:
            problem = f"unreadable lease file ({exc})"
        if problem is not None:
            expired.append(name)
            report.findings.append(
                Finding(
                    area="queue",
                    kind="expired_claim",
                    path=_rel(queue.claimed_dir / name, queue.root),
                    detail=problem + "; requeue_expired will requeue or fail it",
                    fixable=True,
                )
            )

    for name in orphaned:
        fixed = False
        if fix:
            (queue.claimed_dir / name).unlink(missing_ok=True)
            fixed = True
        report.findings.append(
            Finding(
                area="queue",
                kind="orphaned_lease",
                path=_rel(queue.claimed_dir / name, queue.root),
                detail="lease file whose claim is gone (already requeued/completed)",
                fixable=True,
                fixed=fixed,
            )
        )

    for directory, kind in (
        (queue.tasks_dir, "half_written_task"),
        (queue.results_dir, "torn_result"),
        (queue.failed_dir, "torn_result"),
    ):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.json")):
            problem = _unparseable(path)
            if problem is None:
                continue
            report.findings.append(
                Finding(
                    area="queue",
                    kind=kind,
                    path=_rel(path, queue.root),
                    detail=f"not valid JSON ({problem}); left in place for inspection",
                    fixable=False,
                )
            )

    if fix:
        queue.requeue_expired()
        # requeue_expired reaps tmp files and resolves expired claims; mark
        # those findings fixed now that the maintenance pass has run.
        for finding in report.findings:
            if finding.kind in ("stale_tmp", "expired_claim"):
                finding.fixed = True

    meta_problem = _unparseable(queue.root / "queue.json")
    if meta_problem is not None:
        report.findings.append(
            Finding(
                area="queue",
                kind="corrupt_meta",
                path="queue.json",
                detail=f"queue metadata unreadable ({meta_problem})",
                fixable=False,
            )
        )

    report.info = {
        "counts": queue.counts(),
        "counters": queue.counters.to_dict(),
    }
    return report
