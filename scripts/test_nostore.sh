#!/bin/sh
# nostore CI tier: run the execution-layer and store suites with the run
# store explicitly disabled (REPRO_RUN_STORE=0, a falsey token honoured by
# repro.store.run_store.default_store), certifying that every entry point
# stays green and fully cold when no store is configured:
#   * ExperimentSpec.execute / execute_experiment_spec / ExperimentRunner /
#     run_experiments / run_specs_parallel must take their store=None
#     default through resolve_store -> default_store -> None without
#     behaviour changes;
#   * the store test module itself must pass — its tests always name their
#     stores explicitly (tmp_path), so a disabled default is invisible;
#   * the CLI must honour the disabled default (`--store DIR` still opts in,
#     `repro runs` without --store reports "no run store configured").
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
REPRO_RUN_STORE=0 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_run_store.py \
    tests/test_simulation_runner.py \
    tests/test_simulation_parallel.py \
    tests/test_integration_end_to_end.py \
    tests/test_cli.py \
    "$@"
