#!/bin/sh
# sched CI tier: certify the plan -> scheduler -> results-plane stack.
#   * tests/test_exec_plan.py — execution-plan construction (canonical
#     specs, shared-trace lockstep groups, store dedupe + intra-plan
#     aliasing, SO-BMA presolve round-trip), on_error collect/raise
#     semantics (one RunFailure record on serial, pool and queue),
#     REPRO_WORKERS resolution, provenance stamping, and serial-backend
#     equivalence with sequential execution;
#   * tests/test_exec_queue.py — the pull-based work queue: atomic lease
#     claims (duplicate-claim protection), lease expiry requeuing a dead
#     worker's task, max_attempts exhaustion surfacing the original
#     WorkerExecutionError with the failing spec intact, and the
#     end-to-end "queue" backend with real worker subprocesses (one
#     killed mid-task) producing bit-identical results to "serial",
#     every worker leaving its stats file before the parent returns, and
#     the queue backend with a run store (worker-side writes listed by
#     the parent with no index file, a warm serial rerun that is all hits);
#   * tests/test_simulation_parallel.py — the pool backend, which runs
#     every spec through the same execution unit as serial and queue
#     (repro.exec.runtime.run_task): bit-identity with sequential runs,
#     the per-process trace cache, and failure context across the
#     process boundary;
#   * tests/test_store_transfer.py — runs export/import tarballs with
#     the identical-or-error conflict policy, listed with no rebuild step.
# sched-marked subprocess tests auto-skip when os.cpu_count() < 2; set
# REPRO_FORCE_SCHED=1 to force them on a single-core host.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_exec_plan.py \
    tests/test_exec_queue.py \
    tests/test_simulation_parallel.py \
    tests/test_store_transfer.py \
    "$@"
