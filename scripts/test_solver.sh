#!/bin/sh
# solver CI tier: every `solver`-marked test, which certifies the static
# SO-BMA solver end to end.
#   * tests/test_blossom_kernel.py — the array blossom kernel called
#     directly against nx.max_weight_matching: identical matchings on the
#     classic S/T, nested and "nasty" blossom cases, on seeded tie-heavy
#     random graphs (integer, integral-float and mixed weights, shuffled
#     edge order), plus the kernel's invalid/duplicate-edge checks;
#   * tests/test_solver_backends.py — the SOLVER_BACKENDS differential
#     harness (array vs nx), prefix-shared b-sweeps, the demand-fingerprint
#     memo and the perf_smoke canary timing array against nx;
#   * tests/test_matching_static_solver.py — greedy, iterated and exact
#     b-matching solvers and their input validation.
# The same tests run in the default suite; this script is the focused
# entry point for CI and for iterating on solver changes.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q -m solver tests "$@"
