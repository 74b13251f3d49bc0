"""Cold-start hygiene: the default run path loads neither scipy nor networkx.

Every CLI call, queue worker and test subprocess is a fresh process, so a
heavy import on the package's import path is paid many times over.  NetworkX
is needed only for ``Topology.graph``, the ``expander`` topology and the
``nx`` reference solver; scipy is not needed at all.  The check runs in a
subprocess so that modules the pytest process has already imported do not
mask a regression.  It checks module names, not time, so it cannot flake.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro, repro.cli, repro.exec, repro.store
    from repro import ExperimentSpec
    from repro.simulation.sweep import run_experiments
    from repro.topology import FatTreeTopology

    assert FatTreeTopology(n_racks=16).max_distance() == 4
    specs = [
        ExperimentSpec.from_dict({
            "algorithm": {"name": name, "b": 2, "alpha": 4},
            "traffic": {"name": "zipf", "params": {"n_nodes": 10, "n_requests": 300}},
            "seed": 7,
        })
        for name in ("bma", "so-bma")
    ]
    results = run_experiments(specs, n_workers=1, backend="serial")
    assert len(results) == 2
    loaded = sorted(
        m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
    )
    print(loaded)
    """
)


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter on the source tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_default_run_path_loads_neither_scipy_nor_networkx():
    assert _run(SCRIPT).strip().splitlines()[-1] == "[]"


def test_graph_access_loads_networkx_on_demand():
    _run(
        textwrap.dedent(
            """
            import sys
            from repro.topology import RingTopology

            topo = RingTopology(n_racks=5)
            assert "networkx" not in sys.modules
            assert topo.graph.number_of_edges() == 5
            assert "networkx" in sys.modules
            """
        )
    )
