"""Golden digests of every registered workload's request sequence.

Each workload has one generator, its chunked stream; the materialized trace
is that stream concatenated.  These digests were taken from the earlier,
independent bulk generators, so a bug in a stream still fails against a
reference that was not produced by the same code.

A digest is a blake2b over the int32 ``sources`` bytes, the int32
``destinations`` bytes and the canonical JSON of ``(name, n_nodes, seed,
params)``.  The grid is every registered workload at 12 racks over request
counts {0, 1, 700, 9000} (9000 crosses the 8192-request default chunk) and
seeds {0, 17}, plus the three perfbench-scale traces at seed 2023, whose
:func:`compute_trace_statistics` results are pinned float-for-float too.

If a trace change is intentional, regenerate the file with
``REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_traffic_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.traffic import (
    available_workloads,
    compute_trace_statistics,
    make_workload,
    make_workload_stream,
)

pytestmark = pytest.mark.stream

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "golden" / "trace_digests.json"

GRID_NODES = 12
GRID_REQUESTS = (0, 1, 700, 9000)
GRID_SEEDS = (0, 17)

#: (workload, n_nodes, n_requests) of the perfbench-scale traces, seed 2023.
SCALE_TRACES = (
    ("microsoft", 50, 87_500),
    ("facebook-web", 100, 20_000),
    ("facebook-database", 100, 35_000),
)
SCALE_SEED = 2023


def _case_id(name: str, n_nodes: int, n_requests: int, seed: int) -> str:
    return f"{name}/n{n_nodes}/r{n_requests}/s{seed}"


GRID_CASES = [
    (name, GRID_NODES, n_requests, seed)
    for name in sorted(available_workloads())
    for n_requests in GRID_REQUESTS
    for seed in GRID_SEEDS
]
SCALE_CASES = [(name, n, r, SCALE_SEED) for name, n, r in SCALE_TRACES]


def trace_digest(trace) -> str:
    """blake2b of the request arrays plus the canonical metadata JSON."""
    meta = trace.metadata
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(trace.sources, dtype=np.int32).tobytes())
    h.update(np.ascontiguousarray(trace.destinations, dtype=np.int32).tobytes())
    h.update(
        json.dumps(
            [meta.name, meta.n_nodes, meta.seed, dict(meta.params)],
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    )
    return h.hexdigest()


def _kwargs(n_nodes: int, n_requests: int, seed: int) -> dict:
    return dict(n_nodes=n_nodes, n_requests=n_requests, seed=seed)


def _regenerate() -> dict:  # pragma: no cover - run on purpose only
    golden = {"digests": {}, "statistics": {}}
    for case in GRID_CASES + SCALE_CASES:
        trace = make_workload(case[0], **_kwargs(*case[1:]))
        golden["digests"][_case_id(*case)] = trace_digest(trace)
        if case in SCALE_CASES:
            golden["statistics"][_case_id(*case)] = (
                compute_trace_statistics(trace).to_dict()
            )
    return golden


GOLDEN = json.loads(GOLDEN_FILE.read_text())


def test_golden_file_covers_every_workload():
    """A newly registered workload must get digests (regenerate)."""
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        GOLDEN.update(_regenerate())
        GOLDEN_FILE.write_text(json.dumps(GOLDEN, indent=1, sort_keys=True) + "\n")
        pytest.skip("regenerated golden trace digests")
    expected = {_case_id(*case) for case in GRID_CASES + SCALE_CASES}
    assert set(GOLDEN["digests"]) == expected
    assert set(GOLDEN["statistics"]) == {_case_id(*case) for case in SCALE_CASES}


@pytest.mark.parametrize(
    "name,n_nodes,n_requests,seed",
    GRID_CASES + SCALE_CASES,
    ids=[_case_id(*case) for case in GRID_CASES + SCALE_CASES],
)
def test_trace_matches_golden_digest(name, n_nodes, n_requests, seed):
    key = _case_id(name, n_nodes, n_requests, seed)
    kwargs = _kwargs(n_nodes, n_requests, seed)
    assert trace_digest(make_workload(name, **kwargs)) == GOLDEN["digests"][key]
    streamed = make_workload_stream(name, chunk_size=7, **kwargs).materialize()
    assert trace_digest(streamed) == GOLDEN["digests"][key]


@pytest.mark.parametrize(
    "name,n_nodes,n_requests,seed",
    SCALE_CASES,
    ids=[_case_id(*case) for case in SCALE_CASES],
)
def test_statistics_match_golden(name, n_nodes, n_requests, seed):
    key = _case_id(name, n_nodes, n_requests, seed)
    kwargs = _kwargs(n_nodes, n_requests, seed)
    expected = GOLDEN["statistics"][key]
    assert compute_trace_statistics(make_workload(name, **kwargs)).to_dict() == expected
    stream = make_workload_stream(name, chunk_size=4096, **kwargs)
    assert compute_trace_statistics(stream).to_dict() == expected
