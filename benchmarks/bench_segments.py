"""Replay seconds by segment size and path — where the batched replay pays off.

Serves the first 17,500 requests of the fig4 trace through ``serve_batch``
in segments of a fixed size, for every online algorithm of the fig4 panel
(``_harness.figure_specs("fig4")``: microsoft workload, 50 racks; rbma and
bma at b = 3, 6 and 9, and oblivious).  Each segment size is timed on both
replay paths, forced by the instance's ``min_segment``:

* ``serve``: every segment request by request through ``serve``;
* ``replay``: every segment through the base class's ``_replay`` (the
  algorithm's ``_serve_segment``, then the vectorised pricing).

For each algorithm, size and path it prints the seconds summed over the
algorithm's b values, each the best of ``--repeats`` runs.  The smallest
size from which ``replay`` beats ``serve`` for every algorithm is the
crossover that the shared ``min_segment`` (the constant
``repro.core.base._MIN_EVENT_SEGMENT``) should sit at.  Before any time is
printed, every size and path must leave each spec's costs and counters
bit-identical to the first run's.

Usage::

    python benchmarks/bench_segments.py [--src SRC] [--repeats N] [--sizes 1 8 ...]

``--src`` is the ``src/`` tree ``repro`` is imported from (default: this
checkout's), so two trees can be timed on the same host one after the
other.  ``REPRO_BENCH_SCALE`` sizes the fig4 trace as for the figure
benchmarks (default 0.05: 87,500 requests, of which the first 17,500 are
served).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
N_REQUESTS = 17_500
SIZES = (1, 4, 8, 16, 32, 64, 256, 1024, 8750)
ALGORITHMS = ("rbma", "bma", "oblivious")
PATHS = ("serve", "replay")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="src/ tree to import repro from (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per segment size and path; the best is reported (default 5)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help=f"segment sizes (default {' '.join(map(str, SIZES))})")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--repeats and every --sizes value must be >= 1")
    return args


def _replay(spec, trace, topology, size: int, path: str):
    """Seconds to serve ``trace`` in ``size``-request segments on ``path``, and the end state."""
    algorithm = spec.build_algorithm(topology)
    algorithm.min_segment = size + 1 if path == "serve" else 1
    segments = [trace[start:start + size] for start in range(0, len(trace), size)]
    start = time.perf_counter()
    for segment in segments:
        algorithm.serve_batch(segment)
    seconds = time.perf_counter() - start
    state = (
        algorithm.requests_served,
        algorithm.matched_requests,
        algorithm.total_routing_cost,
        algorithm.total_reconfiguration_cost,
        sorted(algorithm.matching.edges),
    )
    return seconds, state


def segment_table(sizes, repeats: int) -> dict:
    """``{algorithm: {(size, path): best seconds summed over b}}`` for the fig4 specs."""
    import _harness as harness

    specs = [spec for spec in harness.figure_specs("fig4") if spec.algorithm.name in ALGORITHMS]
    trace = specs[0].build_trace()[:N_REQUESTS]
    topology = specs[0].build_topology(trace)
    cells = [(size, path) for size in sizes for path in PATHS]
    best = {cell: [float("inf")] * len(specs) for cell in cells}
    reference = {}
    for _ in range(repeats):
        for cell in cells:
            for i, spec in enumerate(specs):
                seconds, state = _replay(spec, trace, topology, *cell)
                if state != reference.setdefault(i, state):
                    raise SystemExit(
                        f"{spec.algorithm.name} b={spec.algorithm.b}: segment size "
                        f"{cell[0]} on the {cell[1]} path changed the result"
                    )
                best[cell][i] = min(best[cell][i], seconds)
    return {
        name: {
            cell: sum(s for s, spec in zip(best[cell], specs) if spec.algorithm.name == name)
            for cell in cells
        }
        for name in ALGORITHMS
    }


def main(argv=None) -> None:
    args = _parse(argv)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(HERE))
    import repro

    table = segment_table(args.sizes, args.repeats)
    print(f"Replay seconds by segment size (fig4 trace, first {N_REQUESTS:,} requests, "
          f"summed over b, best of {args.repeats}; repro from {Path(repro.__file__).parent})")
    print("  " + " " * 6 + "".join(f"  {name + ' ' + path:>17}"
                                   for name in ALGORITHMS for path in PATHS))
    for size in args.sizes:
        row = "".join(f"  {table[name][size, path]:15.4f} s"
                      for name in ALGORITHMS for path in PATHS)
        print(f"  {size:>6}{row}")


if __name__ == "__main__":
    main()
