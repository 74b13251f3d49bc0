"""File-backed, content-addressed repository of run results.

Layout (everything under one root directory)::

    <root>/
      runs/<fp[:2]>/<fp>.json     # sharded entry files, fp = fingerprint_spec
      quarantine/                 # corrupt entry files, sidelined on access

Each entry file holds the full :class:`~repro.simulation.results.RunResult`
(via ``to_dict``) together with provenance — the originating spec's plain
dict, the library version, write timestamps — and a *history* of every time
the same fingerprint was recomputed (wall-clock seconds and total cost per
recomputation), which feeds :mod:`repro.store.statistics`.

Durability rules:

* **Writes are atomic.**  Entry files are written to a temporary sibling
  and moved into place with :func:`os.replace`, so a crashed process can
  never leave a half-written JSON file behind.
* **The shard tree is the only state.**  ``list_runs``, ``find``, ``len``
  and ``gc`` scan the entry files, so a ``put`` of a new fingerprint is one
  rename onto a fresh name and touches nothing else.  An ``index.json``
  catalogue left by an older store format is never read;
  :meth:`RunStore.reindex` (and ``repro doctor --fix``) removes it.
* **Concurrent writers.**  Readers are always safe (atomic replace).
  Queue workers write the store themselves: distinct fingerprints land in
  distinct fresh-named entry files, so they never contend, and two writers
  of the same fingerprint are last-writer-wins on its entry.

Failure semantics (all exercisable via :mod:`repro.faults`):

* **Transient IO errors retry.**  Entry reads and writes go through
  :mod:`repro.ioutil`'s bounded retry with exponential backoff
  (``REPRO_IO_RETRIES`` / ``REPRO_IO_BACKOFF``).
* **One reader judges every entry file.**  An entry is healthy when it
  parses as a JSON object, its ``fingerprint`` field equals its file stem
  and its blake2b payload checksum matches (:func:`parse_entry`).  ``get``,
  the listings, :func:`~repro.store.transfer.export_store` and ``repro
  doctor`` all read through :meth:`RunStore._read`, so they agree on which
  entries exist; ``import_store`` checks its members by the same rule, and
  it and ``put`` write through :meth:`RunStore.write_payload`.
* **Corrupt entries quarantine, never abort.**  ``get`` moves an entry the
  reader rejects (torn, bit-rotted or misnamed) to ``<root>/quarantine/``
  with a :class:`RuntimeWarning` and a ``store.quarantined`` count
  (:mod:`repro.obs`), and the access behaves as a miss — a torn write on a
  non-atomic filesystem costs one recomputation, not the whole run.
  Listings and exports skip it.
* **A persistently unwritable store degrades gracefully.**  ``put``
  failures past the retry budget warn once, count ``store.write_failures``
  and return — the run continues cold and results are still produced.
* **Stale tmp files are reaped.**  :meth:`RunStore.gc` removes orphaned
  ``.*.tmp-*`` siblings left by writers killed between the tmp write and
  the rename.  ``repro doctor`` audits (and ``--fix`` repairs) all of the
  above.

Configuration: pass a :class:`StoreConfig`/path explicitly, or set the
``REPRO_RUN_STORE`` environment variable to a directory path to give every
execution entry point a default store (``0``/``off``/``false``/empty
disable it — see :func:`default_store`).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .._version import __version__
from ..errors import ConfigurationError
from ..experiments.specs import ExperimentSpec
from ..ioutil import atomic_write_json, read_text, reap_stale_tmp
from ..obs import count
from ..simulation.results import RunResult
from .fingerprint import SCHEMA_VERSION, fingerprint_spec

__all__ = [
    "ENV_RUN_STORE",
    "StoreConfig",
    "RunEntry",
    "RunStore",
    "default_store",
    "entry_checksum",
    "parse_entry",
    "resolve_store",
]

#: Environment variable naming the default store directory.
ENV_RUN_STORE = "REPRO_RUN_STORE"

#: Env values that explicitly disable the default store (case-insensitive).
_FALSEY_TOKENS = frozenset({"", "0", "off", "false", "no", "none", "disabled"})

#: On-disk format version of entry files (independent of the fingerprint
#: schema: bumping it changes how entries are read, not what they key).
STORE_FORMAT = 1


@dataclass(frozen=True)
class StoreConfig:
    """Where and how a :class:`RunStore` lays out its files.

    Attributes
    ----------
    root:
        Directory holding the ``runs/`` shard tree (and ``quarantine/``);
        created on first write.
    shard_width:
        Number of leading fingerprint hex digits used as the shard
        directory name.  Two digits = 256 shards, plenty below a million
        entries; widen for truly huge stores.
    """

    root: Path
    shard_width: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if not (1 <= self.shard_width <= 8):
            raise ConfigurationError(
                f"shard_width must be in [1, 8], got {self.shard_width}"
            )


@dataclass(frozen=True)
class RunEntry:
    """One listing row: the summary of one entry file that ``list_runs``
    returns, enough to list and triage a stored run."""

    fingerprint: str
    written_at: str
    algorithm: str
    workload: str
    topology: str
    b: int
    alpha: float
    seed: Optional[int]
    n_requests: int
    total_cost: float
    total_elapsed_seconds: float
    runs: int = 1


def _utcnow_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_iso(text: str) -> datetime:
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def entry_checksum(payload: Mapping[str, Any]) -> str:
    """blake2b digest certifying an entry payload's content.

    Hashes the sort-keyed compact JSON of the payload *minus* the
    ``checksum`` field itself, so the stored value verifies the stored
    bytes.  ``default=str`` keeps the digest total even for payloads that
    smuggled in a non-JSON scalar — the digest must never raise.
    """
    body = {k: v for k, v in payload.items() if k != "checksum"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=20).hexdigest()


def parse_entry(text: Union[str, bytes], stem: str) -> Dict[str, Any]:
    """The payload of an entry file named ``<stem>.json``, if it is healthy.

    The one rule for every entry file the store reads, exports or imports:
    the text parses as a JSON object, its ``fingerprint`` field equals
    ``stem``, and its checksum matches its content (entries written before
    checksums existed carry no ``checksum`` field and are accepted on the
    first two checks).  Raises :class:`ValueError` naming what is wrong.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"not a JSON object but {type(payload).__name__}")
    if payload.get("fingerprint") != stem:
        raise ValueError(
            f"fingerprint field {payload.get('fingerprint')!r} does not match "
            f"file name {stem!r}"
        )
    stored = payload.get("checksum")
    if stored is not None and stored != entry_checksum(payload):
        raise ValueError("payload checksum mismatch (bit rot or partial write)")
    return payload


class RunStore:
    """Content-addressed ``put``/``get`` repository of run results.

    Parameters
    ----------
    config:
        A :class:`StoreConfig`, or a directory path (string or
        :class:`~pathlib.Path`) for the default layout.

    Examples
    --------
    >>> store = RunStore("/tmp/doctest-run-store")
    >>> spec = ExperimentSpec(
    ...     algorithm={"name": "rbma", "b": 2, "alpha": 4},
    ...     traffic={"name": "zipf", "params": {"n_nodes": 8, "n_requests": 50}},
    ...     seed=7,
    ... )
    >>> result = spec.execute()
    >>> fp = store.put(result)
    >>> store.contains(fp) and store.get(fp).total_cost == result.total_cost
    True
    """

    def __init__(self, config: Union[StoreConfig, str, Path]):
        if not isinstance(config, StoreConfig):
            config = StoreConfig(root=Path(config))
        self.config = config
        self._warned_unwritable = False

    # -- layout ----------------------------------------------------------

    @property
    def root(self) -> Path:
        return self.config.root

    @property
    def runs_dir(self) -> Path:
        return self.config.root / "runs"

    @property
    def legacy_index_path(self) -> Path:
        """Where a store written by an older format kept its catalogue.

        Nothing reads it; :meth:`reindex` removes it.
        """
        return self.config.root / "index.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt/checksum-failing entry files are sidelined."""
        return self.config.root / "quarantine"

    def entry_path(self, fingerprint: str) -> Path:
        """``runs/<fp[:shard_width]>/<fp>.json`` for a fingerprint."""
        if not fingerprint or any(c not in "0123456789abcdef" for c in fingerprint):
            raise ConfigurationError(
                f"malformed fingerprint {fingerprint!r} (expected lowercase hex)"
            )
        shard = fingerprint[: self.config.shard_width]
        return self.runs_dir / shard / f"{fingerprint}.json"

    def fingerprint(self, spec: Union[ExperimentSpec, Mapping[str, Any]]) -> str:
        """The store key for ``spec`` (see :func:`~repro.store.fingerprint_spec`)."""
        return fingerprint_spec(spec)

    def _key(self, ref: Union[str, ExperimentSpec, Mapping[str, Any]]) -> str:
        return ref if isinstance(ref, str) else self.fingerprint(ref)

    # -- reading -------------------------------------------------------

    def _read(self, path: Path) -> Dict[str, Any]:
        """The one reader: ``path``'s payload when :func:`parse_entry` passes it.

        Raises :class:`ValueError` for an unhealthy entry (torn, bit-rotted
        or misnamed), ``FileNotFoundError`` for a missing one, and any other
        :class:`OSError` that survives the read retries.
        """
        return parse_entry(read_text(path, site="store.read"), path.stem)

    def entry_files(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]], str]]:
        """Every entry file in the shard tree, judged by the one reader.

        Yields ``(path, payload, "")`` for a healthy entry and
        ``(path, None, reason)`` for one that is not (or that stayed
        unreadable past the read retries); a file removed mid-walk is left
        out.
        """
        if not self.runs_dir.exists():
            return
        for path in sorted(self.runs_dir.glob("*/*.json")):
            try:
                payload, reason = self._read(path), ""
            except FileNotFoundError:
                continue
            except ValueError as exc:
                payload, reason = None, str(exc)
            except OSError as exc:
                payload, reason = None, f"unreadable after retries ({exc})"
            yield path, payload, reason

    def _scan(self) -> Dict[str, RunEntry]:
        """Every healthy entry file's row, keyed by fingerprint."""
        entries: Dict[str, RunEntry] = {}
        for path, payload, _reason in self.entry_files():
            if payload is None:
                continue
            try:
                entries[path.stem] = self._entry_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                continue  # a pre-checksum entry that lacks listing fields
        return entries

    def _entry_from_payload(self, payload: Mapping[str, Any]) -> RunEntry:
        result = payload["result"]
        return RunEntry(
            fingerprint=payload["fingerprint"],
            written_at=payload["written_at"],
            algorithm=result["algorithm"],
            workload=result["workload"],
            topology=result["topology"],
            b=int(result["b"]),
            alpha=float(result["alpha"]),
            seed=result.get("seed"),
            n_requests=int(result["n_requests"]),
            total_cost=float(result["total_routing_cost"])
            + float(result["total_reconfiguration_cost"]),
            total_elapsed_seconds=float(result["total_elapsed_seconds"]),
            runs=len(payload.get("history", ())) or 1,
        )

    def _note_write_failure(self, what: str, exc: OSError) -> None:
        """Count a persistent write failure and warn once per store."""
        count("store.write_failures")
        if not self._warned_unwritable:
            self._warned_unwritable = True
            warnings.warn(
                f"run store at {self.root} is not writable ({what} failed "
                f"after retries: {exc}); continuing without persisting — "
                "results are still computed and returned",
                RuntimeWarning,
                stacklevel=4,
            )

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Sideline an entry file the reader rejected into ``quarantine/``.

        ``get`` calls it on every unhealthy entry it meets, and
        ``repro doctor --fix`` on every one :meth:`entry_files` reports.
        Best-effort: returns the quarantine destination, or ``None`` when
        the move itself failed (the file then stays where it is until the
        next access or a ``repro doctor --fix`` run).
        """
        count("store.quarantined")
        destination = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            k = 1
            while destination.exists():
                destination = self.quarantine_dir / f"{path.stem}.{k}{path.suffix}"
                k += 1
            os.replace(path, destination)
        except OSError:
            destination = None
        warnings.warn(
            f"run-store entry {path.name} is corrupt ({reason}); "
            + (
                f"moved to {destination}"
                if destination is not None
                else "quarantine move failed, leaving it in place"
            )
            + " — treating the access as a miss",
            RuntimeWarning,
            stacklevel=4,
        )
        return destination

    def reindex(self) -> int:
        """Migrate a store written by an older format; returns the entry count.

        Older stores kept a derived ``index.json`` catalogue beside
        ``runs/`` and rewrote it on every put.  Nothing reads it any more:
        this removes a leftover one and returns the number of healthy
        entries a scan finds.
        """
        try:
            self.legacy_index_path.unlink()
        except FileNotFoundError:
            pass
        return len(self._scan())

    # -- core operations -------------------------------------------------

    def contains(self, ref: Union[str, ExperimentSpec, Mapping[str, Any]]) -> bool:
        """Whether a result for this fingerprint (or spec) is stored."""
        return self.entry_path(self._key(ref)).exists()

    def __contains__(self, ref) -> bool:
        return self.contains(ref)

    def __len__(self) -> int:
        return len(self._scan())

    def get_payload(
        self, ref: Union[str, ExperimentSpec, Mapping[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """The raw stored payload (result + provenance + history), or ``None``.

        An entry the reader rejects (torn, checksum-failing, or naming
        another fingerprint) is **quarantined** — moved to ``quarantine/``
        with a :class:`RuntimeWarning` and a ``store.quarantined`` count —
        and the access returns ``None`` so the caller recomputes; it never
        aborts the run.  A transient read error that survives the retry
        budget likewise degrades to a miss (counted as ``store.read_failures``).
        """
        path = self.entry_path(self._key(ref))
        try:
            return self._read(path)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            self.quarantine(path, str(exc))
            return None
        except OSError as exc:
            count("store.read_failures")
            warnings.warn(
                f"run-store entry {path.name} unreadable after retries "
                f"({exc}); treating the access as a miss",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def get(
        self, ref: Union[str, ExperimentSpec, Mapping[str, Any]]
    ) -> Optional[RunResult]:
        """The stored :class:`RunResult`, or ``None`` on a miss.

        Counts ``store.hits`` or ``store.misses`` on :mod:`repro.obs` —
        the numbers the benchmark harness reports as
        ``store_hits``/``store_misses``.
        """
        payload = self.get_payload(ref)
        if payload is None:
            count("store.misses")
            return None
        count("store.hits")
        return RunResult.from_dict(payload["result"])

    def put(
        self,
        result: RunResult,
        fingerprint: Optional[str] = None,
    ) -> str:
        """Store ``result`` under its spec's fingerprint; returns the key.

        The result must carry its originating spec (``result.spec``) unless
        ``fingerprint`` is given by the caller who computed it.  Re-putting
        an existing fingerprint overwrites the stored result and appends a
        row to the entry's recomputation history (timestamp, wall-clock,
        total cost) — the raw material for the statistics layer's runtime
        CIs and determinism checks.
        """
        if fingerprint is None:
            if result.spec is None:
                raise ConfigurationError(
                    "cannot store a RunResult without provenance: the result "
                    "carries no spec and no fingerprint was supplied"
                )
            fingerprint = fingerprint_spec(result.spec)
        previous = self.get_payload(fingerprint) if self.contains(fingerprint) else None
        history = list(previous.get("history", ())) if previous else []
        now = _utcnow_iso()
        history.append(
            {
                "written_at": now,
                "wall_seconds": float(result.total_elapsed_seconds),
                "total_cost": float(result.total_cost),
            }
        )
        payload = {
            "format": STORE_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "written_at": previous["written_at"] if previous else now,
            "updated_at": now,
            "repro_version": __version__,
            "spec": result.spec,
            "result": result.to_dict(),
            "history": history,
        }
        try:
            self.write_payload(payload)
        except OSError as exc:
            # Graceful degradation: a persistently unwritable store must
            # not abort the run — the result was computed, the caller gets
            # it, only the cache is lost.
            self._note_write_failure(f"entry {fingerprint[:12]} write", exc)
            return fingerprint
        count("store.writes")
        return fingerprint

    def write_payload(self, payload: Mapping[str, Any]) -> str:
        """Seal ``payload`` with its checksum and write it as its entry file.

        The one writer: ``put`` and
        :func:`~repro.store.transfer.import_store` both write through it.
        The entry lands at ``entry_path(payload["fingerprint"])`` with one
        atomic rename; an :class:`OSError` that survives the write retries
        propagates.  Returns the fingerprint.
        """
        fingerprint = payload["fingerprint"]
        path = self.entry_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        sealed = {**payload, "checksum": entry_checksum(payload)}
        atomic_write_json(path, sealed, site="store.write")
        return fingerprint

    def delete(self, ref: Union[str, ExperimentSpec, Mapping[str, Any]]) -> bool:
        """Remove one entry; returns whether anything was deleted."""
        try:
            self.entry_path(self._key(ref)).unlink()
        except FileNotFoundError:
            return False
        return True

    def list_runs(self) -> List[RunEntry]:
        """Every healthy entry, newest write first (ties broken by fingerprint).

        Each call scans the shard tree: entry files that are torn or fail
        their checksum are skipped (``get`` and ``repro doctor`` quarantine
        them).
        """
        return sorted(
            self._scan().values(),
            key=lambda e: (e.written_at, e.fingerprint),
            reverse=True,
        )

    def find(self, prefix: str) -> List[RunEntry]:
        """Entries whose fingerprint starts with ``prefix`` (CLI ``show``)."""
        return [e for e in self.list_runs() if e.fingerprint.startswith(prefix)]

    #: Tmp siblings older than this are orphans of a crashed writer, not a
    #: live rename in flight (writes complete in well under a second).
    TMP_MAX_AGE_SECONDS = 3600.0

    def reap_tmp(
        self,
        max_age_seconds: float = TMP_MAX_AGE_SECONDS,
        dry_run: bool = False,
    ) -> List[Path]:
        """Remove stale ``.*.tmp-*`` files under the store root.

        A process killed between the tmp write and the ``os.replace`` —
        exactly the crash window the atomic-write protocol protects entry
        files from — leaves its tmp sibling behind forever.  ``gc`` calls
        this automatically; it is also available standalone (and via
        ``repro doctor --fix``).
        """
        return reap_stale_tmp([self.root], max_age_seconds, dry_run=dry_run)

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_days: Optional[float] = None,
        dry_run: bool = False,
        now: Optional[datetime] = None,
        tmp_max_age_seconds: float = TMP_MAX_AGE_SECONDS,
    ) -> List[str]:
        """Expire entries by age and/or count; returns deleted fingerprints.

        ``max_age_days`` removes entries last written longer ago than that;
        ``max_entries`` then keeps only the newest N.  ``dry_run`` reports
        what *would* be deleted without touching disk.  Every run also
        reaps stale tmp files older than ``tmp_max_age_seconds`` (see
        :meth:`reap_tmp`).
        """
        self.reap_tmp(tmp_max_age_seconds, dry_run=dry_run)
        if max_entries is not None and max_entries < 0:
            raise ConfigurationError(f"max_entries must be >= 0, got {max_entries}")
        if max_age_days is not None and max_age_days < 0:
            raise ConfigurationError(f"max_age_days must be >= 0, got {max_age_days}")
        entries = self.list_runs()  # newest first
        doomed: Dict[str, RunEntry] = {}
        if max_age_days is not None:
            reference = now or datetime.now(timezone.utc)
            cutoff = reference - timedelta(days=max_age_days)
            doomed.update(
                (e.fingerprint, e)
                for e in entries
                if _parse_iso(e.written_at) < cutoff
            )
        if max_entries is not None:
            survivors = [e for e in entries if e.fingerprint not in doomed]
            doomed.update((e.fingerprint, e) for e in survivors[max_entries:])
        fingerprints = list(doomed)
        if not dry_run:
            for fingerprint in fingerprints:
                self.delete(fingerprint)
        return fingerprints


#: Per-process cache of env-configured default stores, keyed by the env
#: value, so repeated execution calls share one instance (and its warn-once
#: state).
_DEFAULT_STORES: Dict[str, RunStore] = {}


def default_store() -> Optional[RunStore]:
    """The process default store from ``REPRO_RUN_STORE``, or ``None``.

    The variable names the store's root directory; unset or one of
    ``0/off/false/no/none/disabled`` (or empty) means "no default store" —
    execution entry points then run everything cold unless handed a store
    explicitly.
    """
    value = os.environ.get(ENV_RUN_STORE)
    if value is None or value.strip().lower() in _FALSEY_TOKENS:
        return None
    store = _DEFAULT_STORES.get(value)
    if store is None:
        store = RunStore(value)
        _DEFAULT_STORES[value] = store
    return store


def resolve_store(
    store: Union[None, bool, RunStore, StoreConfig, str, Path]
) -> Optional[RunStore]:
    """Normalise every execution-layer ``store=`` argument to a store or ``None``.

    ``None`` defers to :func:`default_store` (the ``REPRO_RUN_STORE``
    environment variable); ``False`` disables the store outright regardless
    of the environment; a :class:`RunStore` passes through; a
    :class:`StoreConfig` or path opens one.
    """
    if store is None:
        return default_store()
    if store is False:
        return None
    if store is True:
        raise ConfigurationError(
            "store=True is ambiguous: pass a path/StoreConfig/RunStore, or "
            "set REPRO_RUN_STORE and pass store=None"
        )
    if isinstance(store, RunStore):
        return store
    if isinstance(store, (StoreConfig, str, Path)):
        return RunStore(store)
    raise ConfigurationError(
        f"cannot interpret store={store!r} (expected None, False, a path, "
        "a StoreConfig, or a RunStore)"
    )
