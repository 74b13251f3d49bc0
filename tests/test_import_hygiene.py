"""Import hygiene: no unused imports in ``src/``, and a light cold start.

Every CLI call, queue worker and test subprocess is a fresh process, so a
heavy import on the package's import path is paid many times over.  NetworkX
is needed only for ``Topology.graph``, the ``expander`` topology and the
``nx`` reference solver; scipy is not needed at all.  The check runs in a
subprocess so that modules the pytest process has already imported do not
mask a regression.  It checks module names, not time, so it cannot flake.

The unused-import check reads every module with :mod:`ast`: an imported
name must be used in the code, listed in ``__all__``, or named in a string
annotation (the idiom for names imported under ``TYPE_CHECKING``).
"""

from __future__ import annotations

import ast
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


def _unused_imports(path: Path):
    """``(line, name)`` for every name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation, e.g. "Optional[RunResult]"
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    unused = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := _unused_imports(path))
    }
    assert unused == {}


def test_the_unused_import_check_sees_what_it_must(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(textwrap.dedent(
        """
        from __future__ import annotations
        import os.path
        from typing import TYPE_CHECKING, Dict, List
        from json import dumps, loads
        if TYPE_CHECKING:
            from pathlib import Path
        __all__ = ["dumps"] + ["helper"]
        def helper(p: "Path") -> List[int]:
            return [TYPE_CHECKING]
        """
    ))
    assert _unused_imports(module) == [(3, "os"), (4, "Dict"), (5, "loads")]


#: numpy entry points that hand their work to BLAS or LAPACK.
_BLAS_CALLS = frozenset({"dot", "matmul", "linalg", "einsum", "tensordot", "inner", "vdot"})


def _blas_calls(path: Path):
    """``(line, what)`` for every matrix product or numpy BLAS call in ``path``.

    No code under ``src/`` may call BLAS.  OpenBLAS runs a product on every
    CPU and its helper threads keep spinning after the call returns.  On a
    2-CPU host, the distance matrix of a 100-rack fat tree (320 nodes),
    built as a float32 matmul BFS, took 60-76 ms per build in some fresh
    processes (3 ms in others) and 64 ms in each of two processes building
    at once; the BFS on arc lists takes 2-3 ms either way
    (``benchmarks/bench_topology.py``).  A pure-Python loop
    in a second process ran 1.1-2.4x slower while the matmul build ran
    every 20 ms, and at idle speed next to the BLAS-free build.  Queue
    workers are separate processes on one host, so one worker's topology
    build slowed its sibling's replay.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in _BLAS_CALLS
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names} | set(node.module.split(".")[1:])
            found += [(node.lineno, f"from {node.module} import {name}")
                      for name in sorted(names & _BLAS_CALLS)]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return sorted(found)


def test_no_blas_calls_in_src():
    calls = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := _blas_calls(path))
    }
    assert calls == {}


def test_the_blas_check_sees_what_it_must(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(textwrap.dedent(
        """
        import numpy as np
        import numpy.linalg
        from numpy import einsum, asarray
        from numpy.linalg import norm
        a = np.ones((2, 2)) @ np.ones(2)
        a @= a
        b = np.dot(a, a) + np.linalg.norm(a) + numpy.vdot(a, a)
        c = np.matmul(a, a), np.tensordot(a, a), np.inner(a, a), np.einsum("i,i", a, a)
        d = a * a + np.outer(a, a).sum() + np.bitwise_or.reduceat(a, [0])
        """
    ))
    assert [line for line, _ in _blas_calls(module)] == [3, 4, 5, 6, 7, 8, 8, 8, 9, 9, 9, 9]
