"""Run-store IO: ``put`` latency by store size and ``list_runs`` wall time.

Builds one store in a temporary directory and grows it in steps.  At 0,
100 and 1,000 entries it times ``RunStore.put`` of fresh fingerprints (the
cost a sweep pays per computed cell) and prints the median; at 1,000 and
10,000 entries it times ``list_runs()`` on a new ``RunStore`` instance (the
cost of ``repro runs list``) and prints the median.  Timed puts are
deleted again, so every put lands in a store of exactly the stated size.

The entries are copies of one real stored result (an R-BMA run of 2,000
zipf requests) under synthetic fingerprints, written straight into the
``runs/`` shard tree with valid checksums; after each growth step the
store's ``reindex()`` runs, so a tree that keeps a catalogue file has an
up-to-date one.  The entry files are fresh in the page cache, so the list
times are warm-cache times.

Usage::

    python benchmarks/bench_store.py [--src SRC] [--repeats N] [--workdir DIR]

``--src`` is the ``src/`` tree ``repro`` is imported from (default: this
checkout's), so two trees can be timed on the same host one after the
other.  ``--workdir`` is where the temporary store goes (default: the
system temp directory); the store is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PUT_SIZES = (0, 100, 1_000)
LIST_SIZES = (1_000, 10_000)


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="src/ tree to import repro from (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed puts / listings per size; the median is reported "
                             "(default 9)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="directory for the temporary store (default: system temp)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def _fingerprint(i: int) -> str:
    """A synthetic, well-formed fingerprint (lowercase hex, 40 digits)."""
    return hashlib.blake2b(f"bench-store-{i}".encode(), digest_size=20).hexdigest()


def _add_entries(store, template: dict, start: int, stop: int) -> None:
    """Write copies of ``template`` under fingerprints ``start..stop-1``."""
    from repro.store.run_store import entry_checksum

    for i in range(start, stop):
        fp = _fingerprint(i)
        payload = dict(template, fingerprint=fp)
        payload["checksum"] = entry_checksum(payload)
        path = store.entry_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def store_table(repeats: int, workdir) -> dict:
    """``{"put": {size: median s}, "list": {size: median s}}``."""
    from repro.experiments import ExperimentSpec
    from repro.store import RunStore

    result = ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 16, "n_requests": 2_000}},
        simulation={"checkpoints": 8},
        seed=2023,
    ).execute()
    table: dict = {"put": {}, "list": {}}
    with tempfile.TemporaryDirectory(prefix="bench-store-", dir=workdir) as tmp:
        template_store = RunStore(Path(tmp) / "template")
        template = template_store.get_payload(template_store.put(result))
        root = Path(tmp) / "store"
        fresh = itertools.count(10**9)
        size = 0
        for target in sorted(set(PUT_SIZES) | set(LIST_SIZES)):
            _add_entries(RunStore(root), template, size, target)
            size = target
            RunStore(root).reindex()
            if size in PUT_SIZES:
                store = RunStore(root)
                seconds = []
                for _ in range(repeats):
                    fp = _fingerprint(next(fresh))
                    start = time.perf_counter()
                    store.put(result, fingerprint=fp)
                    seconds.append(time.perf_counter() - start)
                    store.delete(fp)
                table["put"][size] = statistics.median(seconds)
            if size in LIST_SIZES:
                seconds = []
                for _ in range(repeats):
                    store = RunStore(root)
                    start = time.perf_counter()
                    listed = store.list_runs()
                    seconds.append(time.perf_counter() - start)
                    if len(listed) != size:
                        raise SystemExit(f"list_runs returned {len(listed)} of {size} entries")
                table["list"][size] = statistics.median(seconds)
    return table


def main(argv=None) -> None:
    args = _parse(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import repro

    table = store_table(args.repeats, args.workdir)
    print(f"Run-store IO, median of {args.repeats} "
          f"(repro from {Path(repro.__file__).parent})")
    for size, seconds in table["put"].items():
        print(f"  put, new fingerprint, {size:>6,} entries  {seconds * 1e3:9.3f} ms")
    for size, seconds in table["list"].items():
        print(f"  list_runs,            {size:>6,} entries  {seconds * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
