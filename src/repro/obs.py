"""One process-wide registry of named counters, always on.

Every tally is a dotted name: ``store.*`` (:mod:`repro.store.run_store`),
``queue.*`` (:data:`repro.exec.queue.ANOMALIES`), ``solver.memo_*``
(:func:`repro.matching.solver_cache_info`) and ``faults.<site>`` (reset by
:func:`repro.faults.install_faults`).  No count feeds a result or a
fingerprint.  A report of one store's, queue's or worker's work is the
difference of two snapshots around it.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["count", "snapshot", "reset"]

_COUNTS: Dict[str, int] = {}
_LOCK = threading.Lock()  # queue heartbeats count from their own thread


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to the counter ``name``."""
    with _LOCK:
        _COUNTS[name] = _COUNTS.get(name, 0) + n


def snapshot(prefix: str = "") -> Dict[str, int]:
    """A copy of every counter whose name starts with ``prefix``."""
    with _LOCK:
        return {name: n for name, n in _COUNTS.items() if name.startswith(prefix)}


def reset(prefix: str = "") -> None:
    """Drop every counter whose name starts with ``prefix``."""
    with _LOCK:
        for name in [name for name in _COUNTS if name.startswith(prefix)]:
            del _COUNTS[name]
