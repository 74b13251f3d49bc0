"""The counter registry (:mod:`repro.obs`): counts, prefixes, differences.

Every tally in the library is a dotted name in one process-wide registry.
These tests pin its three functions and the registry's namespace: the
names the library counts are exactly the ones its documentation lists.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

from repro.exec.queue import ANOMALIES
from repro.obs import count, reset, snapshot

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestRegistry:
    def test_count_adds_one_or_n(self):
        count("store.hits")
        count("store.hits")
        count("queue.tmp_reaped", 3)
        assert snapshot() == {"store.hits": 2, "queue.tmp_reaped": 3}

    def test_snapshot_is_a_copy(self):
        count("store.hits")
        taken = snapshot()
        taken["store.hits"] = 99
        count("store.misses")
        assert taken == {"store.hits": 99}
        assert snapshot() == {"store.hits": 1, "store.misses": 1}

    def test_snapshot_and_reset_take_a_prefix(self):
        count("store.hits")
        count("solver.memo_hits", 2)
        count("solver.memo_misses")
        assert snapshot("solver.") == {"solver.memo_hits": 2, "solver.memo_misses": 1}
        assert snapshot("solver.memo_m") == {"solver.memo_misses": 1}
        assert snapshot("faults.") == {}
        reset("solver.")
        assert snapshot() == {"store.hits": 1}
        reset()
        assert snapshot() == {}

    def test_a_difference_of_snapshots_counts_the_work_between(self):
        count("queue.requeued", 4)
        before = snapshot("queue.")
        count("queue.requeued")
        count("queue.torn_results", 2)
        after = snapshot("queue.")
        delta = {name: n - before.get(name, 0) for name, n in after.items()}
        assert delta == {"queue.requeued": 1, "queue.torn_results": 2}

    def test_counts_from_threads_are_not_lost(self):
        def work():
            for _ in range(2000):
                count("queue.heartbeat_failures")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert snapshot() == {"queue.heartbeat_failures": 8000}


def _counted_names():
    """Every name ``src/repro`` passes to :func:`repro.obs.count`; an
    f-string's placeholders read ``{}``."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "count" and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                names.add("".join(v.value if isinstance(v, ast.Constant) else "{}"
                                  for v in arg.values))
    return names


def test_the_library_counts_exactly_the_documented_names():
    store = {f"store.{n}" for n in
             ("hits", "misses", "writes", "quarantined", "read_failures", "write_failures")}
    solver = {f"solver.memo_{n}" for n in ("hits", "misses", "evictions")}
    queue = {f"queue.{n}" for n in ANOMALIES}
    assert len(ANOMALIES) == 10
    assert _counted_names() == store | solver | queue | {"faults.{}"}
