"""Hardened filesystem IO shared by the run store and the work queue.

Wraps the primitives everything else is built from — atomic JSON writes
(tmp sibling + ``os.replace``), first-writer-wins publishes (tmp sibling +
``os.link``) and JSON reads — with:

* **bounded retry + exponential backoff with jitter** for transient
  :class:`OSError`: ``REPRO_IO_RETRIES`` extra attempts (default 2) with a
  ``REPRO_IO_BACKOFF`` base sleep (default 0.02 s) doubling per attempt.
  ``FileNotFoundError`` is *never* retried — it is the normal cache-miss /
  lost-race signal, not a transient hiccup;
* **fault-injection hooks** (:mod:`repro.faults`): every operation names
  its fault site, so a chaos plan can target store writes, queue claims,
  heartbeats, … independently (zero overhead when no plan is installed);
* **stale tmp-file reaping**: a process crashing between the tmp write and
  the rename leaves a ``.<name>.tmp-<pid>`` sibling forever;
  :func:`reap_stale_tmp` removes those older than a threshold (the run
  store's ``gc`` and the queue's ``requeue_expired`` both call it).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, TypeVar

from .faults import fault_point, maybe_corrupt

__all__ = [
    "ENV_IO_RETRIES",
    "ENV_IO_BACKOFF",
    "DEFAULT_IO_RETRIES",
    "DEFAULT_IO_BACKOFF",
    "atomic_write_json",
    "io_backoff",
    "io_retries",
    "publish_json",
    "read_json",
    "read_text",
    "reap_stale_tmp",
    "stale_tmp_files",
    "with_io_retries",
]

#: Extra attempts after the first failure of a store/queue IO operation.
ENV_IO_RETRIES = "REPRO_IO_RETRIES"
#: Base backoff sleep in seconds (doubles per attempt, with jitter).
ENV_IO_BACKOFF = "REPRO_IO_BACKOFF"

DEFAULT_IO_RETRIES = 2
DEFAULT_IO_BACKOFF = 0.02

#: Glob matching the tmp siblings :func:`atomic_write_json` creates.
_TMP_GLOB = ".*.tmp-*"

T = TypeVar("T")


def _env_number(name: str, default: float, kind: type) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = kind(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {name}={raw!r} (using default {default})",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    return max(0, value) if kind is int else max(0.0, value)


def io_retries() -> int:
    """Extra attempts for transient IO failures (``REPRO_IO_RETRIES``)."""
    return int(_env_number(ENV_IO_RETRIES, DEFAULT_IO_RETRIES, int))


def io_backoff() -> float:
    """Base backoff sleep in seconds (``REPRO_IO_BACKOFF``)."""
    return float(_env_number(ENV_IO_BACKOFF, DEFAULT_IO_BACKOFF, float))


def _backoff_delay(base: float, attempt: int, site: str) -> float:
    """Exponential backoff with deterministic jitter in [0.5, 1.0)x.

    The jitter draw hashes (site, attempt) rather than sampling a clock or
    a global RNG: sleeps never influence results, but keeping them
    deterministic keeps chaos runs exactly reproducible end to end.
    """
    digest = blake2b(f"{site}|{attempt}".encode("utf-8"), digest_size=8).digest()
    jitter = 0.5 + 0.5 * (int.from_bytes(digest, "big") / 2.0**64)
    return base * (2.0**attempt) * jitter


def with_io_retries(op: Callable[[], T], site: str) -> T:
    """Run ``op`` with bounded retry on transient :class:`OSError`.

    ``FileNotFoundError`` propagates immediately (a miss or a lost rename
    race is a *signal*, not a hiccup).  After the retry budget is exhausted
    the last error propagates — callers decide whether that is fatal,
    degraded, or a requeue.
    """
    attempts = io_retries() + 1
    base = io_backoff()
    for attempt in range(attempts):
        try:
            return op()
        except FileNotFoundError:
            raise
        except OSError:
            if attempt + 1 >= attempts:
                raise
            if base > 0:
                time.sleep(_backoff_delay(base, attempt, site))
    raise AssertionError("unreachable")  # pragma: no cover


def _write_json(path, payload: Any, site: str, place: Callable[[Path, Path], T]) -> T:
    """Write the JSON of ``payload`` to a tmp sibling of ``path``, then ``place`` it.

    Retries transient failures (see :func:`with_io_retries`); each attempt
    rewrites the tmp file from scratch so a half-written attempt can never
    be moved into place.  ``site`` names the fault-injection site.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2) + "\n"

    def op() -> T:
        fault_point(site)
        data = maybe_corrupt(site, text)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        tmp.write_text(data, encoding="utf-8")
        return place(tmp, path)

    return with_io_retries(op, site)


def atomic_write_json(path, payload: Any, site: str = "store.write") -> None:
    """Write JSON durably: full content to a tmp sibling, then rename over ``path``."""
    _write_json(path, payload, site, os.replace)


def _link_once(tmp: Path, path: Path) -> bool:
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        tmp.unlink()
    return True


def publish_json(path, payload: Any, site: str) -> bool:
    """Write JSON durably unless ``path`` exists: the first publisher wins.

    Like :func:`atomic_write_json`, but the tmp sibling is hard-linked onto
    ``path``, which fails when ``path`` already exists; returns whether this
    call published.  Readers never see a half-written file.
    """
    return _write_json(path, payload, site, _link_once)


def read_text(path, site: str = "store.read") -> str:
    """Read a text file with transient-failure retries (see module docs)."""

    def op() -> str:
        fault_point(site)
        return Path(path).read_text(encoding="utf-8")

    return with_io_retries(op, site)


def read_json(path, site: str = "store.read") -> Any:
    """Read and parse a JSON file with transient-failure retries.

    :class:`json.JSONDecodeError` propagates untouched — torn or corrupt
    content is a *different* failure class from a transient read error,
    and callers handle it differently (quarantine vs. retry).
    """
    return json.loads(read_text(path, site))


def stale_tmp_files(
    directories: Iterable, max_age_seconds: float, now: Optional[float] = None
) -> List[Path]:
    """Tmp siblings under ``directories`` (recursive) older than the threshold.

    A fresh tmp file may belong to a live writer mid-rename; one older than
    ``max_age_seconds`` is orphaned wreckage from a crashed process.
    """
    reference = time.time() if now is None else now
    stale: List[Path] = []
    for directory in directories:
        directory = Path(directory)
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob(_TMP_GLOB)):
            try:
                age = reference - path.stat().st_mtime
            except OSError:
                continue  # vanished mid-scan: someone else cleaned it up
            if age > max_age_seconds:
                stale.append(path)
    return stale


def reap_stale_tmp(
    directories: Iterable,
    max_age_seconds: float,
    dry_run: bool = False,
    now: Optional[float] = None,
) -> List[Path]:
    """Delete (or, with ``dry_run``, just report) stale tmp files."""
    stale = stale_tmp_files(directories, max_age_seconds, now=now)
    if not dry_run:
        for path in stale:
            try:
                path.unlink()
            except OSError:
                continue  # lost a race or unwritable: the next sweep retries
    return stale
