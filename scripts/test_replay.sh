#!/bin/sh
# replay CI tier: certify the batched-replay contract of the algorithms.
# The contract is one ledger: an algorithm's _serve_segment runs its policy
# and logs the matching edges it adds and removes; the base class's _replay
# alone prices every request from that log and commits the totals.
#   * tests/test_differential_matching.py — the fast kernel against the
#     reference one, operation by operation and whole replays over every
#     registered algorithm x topology x workload; random segment splits of
#     serve_batch against request-by-request serve; and the seam itself:
#     OnlineBMatchingAlgorithm.serve_batch sends a fast-kernel Trace segment
#     of at least min_segment requests to _replay and everything else
#     through serve;
#   * tests/test_serve_batch_degenerate.py — empty and one-request
#     segments, b = 1 and one-checkpoint runs (every algorithm x backend),
#     and a degree check failing mid-segment (every algorithm);
#   * tests/test_regression_pins.py — golden costs per algorithm;
#   * tests/test_core_*.py — each algorithm's own tests, including its
#     batched replay against per-request serving and its error semantics.
# The same tests run in the default suite; this script is the focused
# entry point for CI and for iterating on an algorithm's _serve_segment.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_differential_matching.py \
    tests/test_serve_batch_degenerate.py \
    tests/test_regression_pins.py \
    tests/test_core_*.py \
    "$@"
