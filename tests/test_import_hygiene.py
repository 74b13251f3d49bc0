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
