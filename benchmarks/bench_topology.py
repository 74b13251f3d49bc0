"""Topology build milliseconds by family and size, alone and two processes at once.

Builds every registered topology family at about 50, 100 and 500 racks
(``make_topology``, distance matrix included; the torus and hypercube take
the nearest grid and power of two) and prints each build's best-of-N
milliseconds twice:

* ``1 proc``: in this process, one build at a time;
* ``2 procs``: in two spawned processes that build the same topology at
  the same moment (a barrier before every cell), the slower process's best.

The second column is what a queue worker pays for its topology while its
sibling worker runs on the same host.  Before any time is taken, every
built matrix must equal a plain per-rack queue BFS over the topology's
edges.  A last line times a 1000-rack fat tree in this process and reports
its ``tracemalloc`` peak, checked against the fat tree's pod structure.

Usage::

    python benchmarks/bench_topology.py [--src SRC] [--repeats N] [--sizes 50 100 ...]

``--src`` is the ``src/`` tree ``repro`` is imported from (default: this
checkout's), so two trees can be timed on the same host one after the
other.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = (50, 100, 500)
FAMILIES = ("fat-tree", "leaf-spine", "star", "ring", "torus", "hypercube", "expander")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="src/ tree to import repro from (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="builds per cell; the best is reported (default 7)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help=f"rack counts (default {' '.join(map(str, SIZES))})")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 4:
        parser.error("--repeats must be >= 1 and every --sizes value >= 4")
    return args


def _params(family: str, n: int) -> dict:
    """Constructor parameters of ``family`` at about ``n`` racks."""
    if family == "torus":
        rows = max(2, math.isqrt(n))
        return {"rows": rows, "cols": max(2, round(n / rows))}
    if family == "hypercube":
        return {"dimension": max(1, round(math.log2(n)))}
    if family == "expander":
        return {"n_racks": n, "seed": 7}
    return {"n_racks": n}


def _reference_distances(topology) -> list:
    """Rack-to-rack hop counts from one plain queue BFS per rack."""
    graph = topology.graph
    neighbours = {node: [] for node in graph.nodes()}
    for u, v in graph.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    rows = []
    for source in topology.rack_nodes:
        hops = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in neighbours[node]:
                if other not in hops:
                    hops[other] = hops[node] + 1
                    queue.append(other)
        rows.append([float(hops.get(rack, math.inf)) for rack in topology.rack_nodes])
    return rows


def _time_cells(src: str, cells, repeats: int, barrier=None) -> list:
    """Best build milliseconds of every ``(family, params)`` cell."""
    sys.path.insert(0, src)
    from repro.topology import make_topology

    best = []
    for family, params in cells:
        make_topology(family, **params)  # warm-up: first-call imports
        if barrier is not None:
            barrier.wait()
        seconds = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            make_topology(family, **params)
            seconds = min(seconds, time.perf_counter() - start)
        best.append(seconds * 1e3)
    return best


def _worker(src: str, cells, repeats: int, barrier, results) -> None:
    results.put(_time_cells(src, cells, repeats, barrier))


def _time_two_processes(src: str, cells, repeats: int) -> list:
    """Per cell, the slower of two processes' best while both build at once."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    results = context.Queue()
    workers = [
        context.Process(target=_worker, args=(src, cells, repeats, barrier, results))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    tables = [results.get(timeout=600) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        if worker.exitcode != 0:
            raise SystemExit(f"a timing process exited with {worker.exitcode}")
    return [max(pair) for pair in zip(*tables)]


def _fat_tree_1000() -> tuple[float, float]:
    """Build milliseconds and ``tracemalloc`` peak MB of a 1000-rack fat tree."""
    import numpy as np
    from repro.topology import FatTreeTopology

    start = time.perf_counter()
    topology = FatTreeTopology(n_racks=1000)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        FatTreeTopology(n_racks=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pods = np.array([topology.pod_of(rack) for rack in range(1000)])
    expected = np.where(pods[:, None] == pods[None, :], 2.0, 4.0)
    np.fill_diagonal(expected, 0.0)
    if not np.array_equal(topology.distance_matrix, expected):
        raise SystemExit("fat-tree 1000: distances differ from the pod structure")
    return seconds * 1e3, peak / 1e6


def main(argv=None) -> None:
    args = _parse(argv)
    src = str(args.src.resolve())
    sys.path.insert(0, src)
    import repro
    from repro.topology import make_topology

    cells = [(family, _params(family, n)) for family in FAMILIES for n in args.sizes]
    for family, params in cells:
        topology = make_topology(family, **params)
        if topology.distance_matrix.tolist() != _reference_distances(topology):
            raise SystemExit(f"{family} {params}: distances differ from the reference BFS")
    alone = _time_cells(src, cells, args.repeats)
    together = _time_two_processes(src, cells, args.repeats)
    build_ms, peak_mb = _fat_tree_1000()

    print(f"Topology build ms, best of {args.repeats} (repro from {Path(repro.__file__).parent})")
    head = "".join(f"{n:>9}" for n in args.sizes)
    print(f"  {'':<12}{'1 proc':^{9 * len(args.sizes)}}  {'2 procs':^{9 * len(args.sizes)}}")
    print(f"  {'racks ~':<12}{head}  {head}")
    width = len(args.sizes)
    for row, family in enumerate(FAMILIES):
        cols = slice(row * width, (row + 1) * width)
        print(f"  {family:<12}" + "".join(f"{ms:9.2f}" for ms in alone[cols])
              + "  " + "".join(f"{ms:9.2f}" for ms in together[cols]))
    print(f"  fat-tree, 1000 racks: {build_ms:.1f} ms, tracemalloc peak {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
