"""``repro doctor``: audit (and repair) run-store and work-queue directories.

Both the store and the queue are plain directories of JSON files mutated by
atomic renames, so every crash mode leaves a recognisable artefact behind:

* a writer killed between the tmp write and the rename leaves a stale
  ``.<name>.tmp-<pid>`` sibling;
* a queue worker killed after claiming leaves an expired lease (or an
  orphaned ``.lease`` file whose claim was already requeued);
* torn, bit-rotted or misnamed entry files fail the store's entry rule;
* half-written task files in a queue cannot be parsed as task payloads.

The doctor judges no file format itself: it asks the module that writes
the files.  :func:`audit_store` reports the entries the store's one reader
rejects (:meth:`~repro.store.run_store.RunStore.entry_files`, the same walk
that listings and exports use), and :func:`audit_queue` reports exactly the
orphaned leases and expired claims that
:meth:`~repro.exec.queue.WorkQueue.requeue_expired` will act on
(:meth:`~repro.exec.queue.WorkQueue.stale_claims`).  With ``fix=True`` the
repairs are the owners' own: the store's quarantine and legacy-index
removal, the queue's maintenance pass (which also reaps stale tmp files);
each finding records whether its file is gone afterwards; ``counters``
holds the ``store.``/``queue.`` counts (:mod:`repro.obs`) the audit added.
The CLI front-end is ``repro doctor [--store DIR] [--queue DIR] [--fix]``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .ioutil import reap_stale_tmp, stale_tmp_files
from .obs import snapshot
from .store.run_store import RunStore

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
        return asdict(self)


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
    directories: Sequence[Path],
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
    """Audit a run store: stale tmp files, unhealthy entries, a legacy index.

    An entry is unhealthy when the store's reader rejects it (torn,
    checksum-failing, misnamed, or unreadable past the retries); the same
    entries are missing from ``list_runs`` and skipped by exports.  With
    ``fix=True``: reaps the tmp files, quarantines the unhealthy entries
    (:meth:`RunStore.quarantine`, so counters and warnings behave exactly as
    they would mid-run), and removes an ``index.json`` left by an older
    store format (:meth:`RunStore.reindex`).
    """
    max_age = (
        store.TMP_MAX_AGE_SECONDS if tmp_max_age_seconds is None else tmp_max_age_seconds
    )
    before = snapshot("store.")
    report = DoctorReport(root=str(store.root), area="store")
    _audit_tmp(report, [store.root], store.root, max_age, fix)

    entries_on_disk = 0
    for path, payload, reason in store.entry_files():
        if payload is not None:
            entries_on_disk += 1
            continue
        report.findings.append(
            Finding(
                area="store",
                kind="corrupt_entry",
                path=_rel(path, store.root),
                detail=reason,
                fixable=True,
                fixed=fix and store.quarantine(path, f"doctor: {reason}") is not None,
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
        "counters": {k: n - before.get(k, 0) for k, n in snapshot("store.").items()},
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
    """Audit a work queue: stale tmp files, stale claims, torn files.

    ``queue`` is a :class:`~repro.exec.queue.WorkQueue`.  The orphaned
    leases and expired claims reported are exactly
    :meth:`~repro.exec.queue.WorkQueue.stale_claims`, the list
    :meth:`~repro.exec.queue.WorkQueue.requeue_expired` acts on.  With
    ``fix=True`` the repair is that maintenance pass, which also reaps
    stale tmp files; a finding counts as fixed when its file is gone
    afterwards.  Half-written task files are *reported* but never deleted
    (they may carry the only copy of a task).
    """
    before = snapshot("queue.")
    report = DoctorReport(root=str(queue.root), area="queue")
    _audit_tmp(
        report,
        queue.task_dirs,
        queue.root,
        queue.TMP_MAX_AGE_SECONDS,
        fix=False,  # requeue_expired (below) is the fixer; avoid double-reap
    )
    for name, reason in queue.stale_claims():
        orphan = name.endswith(".lease")
        report.findings.append(
            Finding(
                area="queue",
                kind="orphaned_lease" if orphan else "expired_claim",
                path=_rel(queue.claimed_dir / name, queue.root),
                detail=reason if orphan else f"{reason}; requeue_expired will requeue or fail it",
                fixable=True,
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
        for finding in report.findings:
            finding.fixed = finding.fixable and not (queue.root / finding.path).exists()

    report.info = {
        "counts": queue.counts(),
        "counters": {k: n - before.get(k, 0) for k, n in snapshot("queue.").items()},
    }
    return report
