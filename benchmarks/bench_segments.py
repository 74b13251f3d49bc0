"""R-BMA replay seconds by segment size — where event-skipping pays off.

Serves the first 17,500 requests of the fig4 trace (the R-BMA specs of
``_harness.figure_specs("fig4")``: microsoft workload, 50 racks, b = 3, 6
and 9) through ``RBMA.serve_batch`` in segments of a fixed size, and prints
for each segment size the seconds summed over the three b values, each
the best of ``--repeats`` runs.  Segments shorter than ``RBMA.min_segment``
(the constant ``repro.core.uniform._MIN_EVENT_SEGMENT``) are served request
by request, longer ones through the event-skipping special step in
``RBMA._serve_segment``, so the table shows the crossover between the two.
Before any time is printed, every segment size must leave each b's costs
and counters bit-identical to the first size's.

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
SIZES = (1, 8, 16, 32, 64, 256, 1024, 8750)


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="src/ tree to import repro from (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per segment size; the best is reported (default 5)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help=f"segment sizes (default {' '.join(map(str, SIZES))})")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--repeats and every --sizes value must be >= 1")
    return args


def _replay(spec, trace, topology, size: int):
    """Seconds to serve ``trace`` in ``size``-request segments, and the end state."""
    algorithm = spec.build_algorithm(topology)
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
    """``{size: best seconds summed over b}`` for the fig4 R-BMA specs."""
    import _harness as harness

    specs = [spec for spec in harness.figure_specs("fig4") if spec.algorithm.name == "rbma"]
    trace = specs[0].build_trace()[:N_REQUESTS]
    topology = specs[0].build_topology(trace)
    best = {size: [float("inf")] * len(specs) for size in sizes}
    reference = {}
    for _ in range(repeats):
        for size in sizes:
            for i, spec in enumerate(specs):
                seconds, state = _replay(spec, trace, topology, size)
                expected = reference.setdefault(i, state)
                if state != expected:
                    raise SystemExit(
                        f"b={spec.algorithm.b}: segment size {size} changed the result"
                    )
                best[size][i] = min(best[size][i], seconds)
    return {size: sum(per_b) for size, per_b in best.items()}


def main(argv=None) -> None:
    args = _parse(argv)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(HERE))
    import repro

    table = segment_table(args.sizes, args.repeats)
    print(f"R-BMA seconds by segment size (fig4 trace, first {N_REQUESTS:,} requests, "
          f"b = 3/6/9 summed, best of {args.repeats}; repro from {Path(repro.__file__).parent})")
    for size, seconds in table.items():
        print(f"  {size:>6}  {seconds:8.4f} s")


if __name__ == "__main__":
    main()
