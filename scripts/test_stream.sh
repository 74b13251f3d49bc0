#!/bin/sh
# stream CI tier: certify the streaming trace protocol end to end.
#   * tests/test_traffic_stream.py — TraceStream protocol, chunked
#     generators (fork_generator counter/buffer semantics, every workload's
#     stream concatenating to its materialized trace at any chunk size,
#     TemporalModel's vectorised repeats against the per-request loop), tee
#     fan-out, the incremental statistics accumulator, and chunked CSV/JSONL
#     readers;
#   * tests/test_traffic_golden.py — every workload's requests and the
#     perfbench-scale trace statistics against golden digests taken from
#     the earlier, independent bulk generators;
#   * tests/test_streaming_engine.py — the streaming drive loop: a
#     differential matrix over every registered algorithm x backend x chunk
#     size asserting streamed replay is bit-identical to materialized
#     replay, the golden pins under streaming, unknown-length checkpoint
#     planning, the bounded-memory guarantee, and the runner/spec
#     integration (traffic.streaming, compare_on_shared_trace fan-out);
#   * tests/test_core_hybrid.py — HybridBMA's batched replay, which carries
#     the combiner's followed expert, switch count and real matching across
#     segments, against per-request serving: segment cuts at and around
#     every switch, 1-20-request segments, switch-heavy factors, period 1
#     and 2, a failing pager or install mid-segment, the reference kernel.
# The same tests run in the default suite; this script is the focused
# entry point for CI and for iterating on stream-layer changes.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_traffic_stream.py \
    tests/test_traffic_golden.py \
    tests/test_streaming_engine.py \
    tests/test_core_hybrid.py \
    "$@"
