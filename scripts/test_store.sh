#!/bin/sh
# store CI tier: certify the run store's on-disk format end to end.
#   * tests/test_run_store.py — content-addressed put/get, the shard tree
#     as the only state (listings scan it, a leftover index.json is
#     ignored), quarantine of torn and misnamed entries, gc, statistics;
#   * tests/test_store_transfer.py — export/import tarballs: only healthy
#     entries are exported, and an import aborts before writing anything
#     on a torn, bit-rotted or misnamed member or a conflicting result;
#   * tests/test_doctor.py — `repro doctor` reports what the store's
#     reader rejects and exactly the claims the queue's requeue_expired
#     acts on, and --fix repairs through those owners;
#   * tests/test_obs.py — the counter registry (repro.obs) that holds the
#     store's, the queue's, the solver memo's and the fault plan's counts.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_run_store.py \
    tests/test_store_transfer.py \
    tests/test_doctor.py \
    tests/test_obs.py \
    "$@"
