"""Moving run stores between machines: tarball export / import.

A store is just its sharded entry files, so a portable snapshot is a gzipped
tar of those files plus a small manifest.  :func:`export_store` writes one
with every entry the store's one reader passes
(:meth:`~repro.store.run_store.RunStore.entry_files`); :func:`import_store`
checks every member against the same rule
(:func:`~repro.store.run_store.parse_entry`) and merges them into an
existing store under an *identical-or-error* conflict policy: a fingerprint
present on both sides must carry the same result payload — same content
address, same bytes — otherwise the import aborts **before touching any
file**, listing every conflicting fingerprint.  A conflict means the two
stores disagree about a deterministic computation, which is a bug worth
stopping for, never something to silently overwrite.

Identical entries merge their recomputation histories (union, ordered by
timestamp) so cross-machine timing statistics keep every observation.
"""

from __future__ import annotations

import io
import json
import tarfile
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .._version import __version__
from ..errors import ConfigurationError, SimulationError
from .run_store import RunStore, parse_entry

__all__ = ["export_store", "import_store", "MANIFEST_NAME"]

#: Manifest file name inside an exported tarball.
MANIFEST_NAME = "manifest.json"

#: Directory prefix of entry members inside the tarball (mirrors the store
#: layout so a tarball is readable by eye: ``runs/<shard>/<fp>.json``).
_ENTRY_PREFIX = "runs/"

#: Export format version, checked on import.
TRANSFER_FORMAT = 1


def export_store(store: RunStore, tarball) -> Dict[str, Any]:
    """Write every entry of ``store`` to a gzipped tarball; returns a summary.

    The tarball contains a :data:`MANIFEST_NAME` member (format version,
    entry count, fingerprints) followed by the entry files under ``runs/``.
    Entry files the store's reader rejects (torn, bit-rotted, misnamed or
    unreadable) are skipped and listed in the summary's ``skipped`` rather
    than poisoning the archive.
    """
    tarball = Path(tarball)
    healthy: List[Tuple[Path, Dict[str, Any]]] = []
    skipped: List[str] = []
    for path, payload, _reason in store.entry_files():
        if payload is None:
            skipped.append(path.name)
        else:
            healthy.append((path, payload))
    fingerprints = [path.stem for path, _payload in healthy]
    manifest = {
        "format": TRANSFER_FORMAT,
        "repro_version": __version__,
        "exported_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "entries": len(fingerprints),
        "fingerprints": fingerprints,
    }
    tarball.parent.mkdir(parents=True, exist_ok=True)
    with tarfile.open(tarball, "w:gz") as tar:
        _add_bytes(tar, MANIFEST_NAME, json.dumps(manifest, indent=2).encode("utf-8"))
        for path, payload in healthy:
            # The layout atomic_write_json gives every entry file.
            data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            _add_bytes(tar, path.relative_to(store.root).as_posix(), data)
    return {"exported": len(fingerprints), "skipped": skipped, "path": str(tarball)}


def _add_bytes(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name=name)
    info.size = len(data)
    tar.addfile(info, io.BytesIO(data))


def _read_members(tarball: Path) -> Dict[str, Dict[str, Any]]:
    """Fingerprint -> entry payload from the tarball (validated, in memory).

    The whole archive is read, and every entry member checked against the
    store's rule (:func:`~repro.store.run_store.parse_entry`), **before**
    the caller writes anything, so a truncated download or a torn,
    bit-rotted or misnamed member can never leave a half-imported store.  Truncation mid-archive surfaces as
    :class:`~repro.errors.SimulationError` naming the member where the
    archive became unreadable.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    try:
        tar = tarfile.open(tarball, "r:gz")
    except (OSError, EOFError, tarfile.TarError) as exc:
        raise ConfigurationError(f"cannot read store tarball {tarball}: {exc}") from exc
    with tar:
        manifest: Optional[Mapping[str, Any]] = None
        # Iterate incrementally (not getmembers()) so that when a truncated
        # archive dies mid-read we still know the nearest member by name.
        current: Optional[str] = None
        try:
            member = tar.next()
            while member is not None:
                current = member.name
                if member.isfile():
                    handle = tar.extractfile(member)
                    if handle is None:  # pragma: no cover - isfile() filtered
                        member = tar.next()
                        continue
                    data = handle.read()
                    if member.name == MANIFEST_NAME:
                        manifest = json.loads(data)
                    elif member.name.startswith(_ENTRY_PREFIX):
                        stem = PurePosixPath(member.name).stem
                        try:
                            entries[stem] = parse_entry(data, stem)
                        except ValueError as exc:
                            raise SimulationError(
                                f"store tarball member {member.name!r} is not a "
                                f"healthy run-store entry ({exc}); nothing was "
                                "imported"
                            ) from exc
                member = tar.next()
        except (OSError, EOFError, tarfile.TarError) as exc:
            where = (
                f"at member {current!r}" if current is not None else "at the header"
            )
            raise SimulationError(
                f"store tarball {tarball} is truncated or corrupt ({where}: "
                f"{exc}); nothing was imported"
            ) from exc
        if manifest is None:
            raise ConfigurationError(
                f"{tarball} is not a run-store export (missing {MANIFEST_NAME})"
            )
        if manifest.get("format") != TRANSFER_FORMAT:
            raise ConfigurationError(
                f"unsupported store export format {manifest.get('format')!r} "
                f"(this version reads format {TRANSFER_FORMAT})"
            )
    return entries


def _merged_history(ours: Mapping[str, Any], theirs: Mapping[str, Any]) -> List[Dict]:
    """Union of two identical entries' recomputation histories, by timestamp."""
    seen = set()
    merged: List[Dict] = []
    rows = list(ours.get("history", ())) + list(theirs.get("history", ()))
    for row in sorted(rows, key=lambda r: str(r.get("written_at", ""))):
        key = json.dumps(row, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        merged.append(dict(row))
    return merged


def import_store(store: RunStore, tarball) -> Dict[str, Any]:
    """Merge an exported tarball into ``store``; identical-or-error on conflict.

    Two passes: first every incoming entry is checked against the store —
    any fingerprint whose stored ``result`` differs from the incoming one
    aborts the whole import with :class:`~repro.errors.SimulationError`
    (listing the conflicting fingerprints) before a single file is written;
    only then are new entries written and identical duplicates' histories
    merged.  Both go through the store's one writer
    (:meth:`~repro.store.run_store.RunStore.write_payload`), one entry file
    each; listings read the shard tree, so the imported entries show up with
    nothing else to refresh.  A merged entry's ``updated_at`` becomes its
    newest history row's timestamp, as ``put`` keeps it.  Returns
    ``{"imported", "merged", "unchanged"}`` counts.
    """
    entries = _read_members(Path(tarball))
    conflicts: List[str] = []
    existing: Dict[str, Optional[Dict[str, Any]]] = {}
    for fingerprint, incoming in entries.items():
        store.entry_path(fingerprint)  # validates the fingerprint shape
        ours = store.get_payload(fingerprint)
        existing[fingerprint] = ours
        if ours is not None and ours.get("result") != incoming.get("result"):
            conflicts.append(fingerprint)
    if conflicts:
        listing = ", ".join(sorted(conflicts)[:5])
        more = len(conflicts) - min(len(conflicts), 5)
        raise SimulationError(
            f"store import aborted: {len(conflicts)} fingerprint(s) already "
            f"exist with different results ({listing}"
            + (f", and {more} more" if more else "")
            + "); the two stores disagree about a deterministic computation "
            "— nothing was imported"
        )
    imported = merged = unchanged = 0
    for fingerprint, incoming in entries.items():
        ours = existing[fingerprint]
        if ours is None:
            store.write_payload(incoming)
            imported += 1
            continue
        history = _merged_history(ours, incoming)
        if history == list(ours.get("history", ())):
            unchanged += 1
            continue
        updated_at = history[-1].get("written_at", ours.get("updated_at"))
        store.write_payload({**ours, "history": history, "updated_at": updated_at})
        merged += 1
    return {"imported": imported, "merged": merged, "unchanged": unchanged}
