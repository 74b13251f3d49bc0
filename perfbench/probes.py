"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps public entry points of the ``repro`` layers with timed
spans, and :func:`uninstall` puts the originals back, so an untraced panel
runs exactly the program's own code.  Nothing under ``src/`` is edited.

Span model
----------
*Partition* layers (:data:`PARTITION`) split a panel's wall time: each
records its inclusive time and its exclusive time, which is the inclusive
time minus the partition spans nested inside it.  Their exclusive times plus
the unattributed rest add up to the panel wall.  *Sub-layers* (paging,
solver rounds, store IO) record inclusive time and call counts only; they
are drill-downs inside a partition layer and are not subtracted from it.
A span nested inside another span of the same name (a streamed
``run_simulation`` feeding ``StreamingSimulation.feed``, a tee child pulling
from its source) is not timed again.  Spans are kept as per-name totals,
not one record per call: paging alone opens ~60k spans per fig4 panel.

Queue workers are separate processes.  For them every queue panel puts
``hook/`` on ``PYTHONPATH`` and names a report directory in
:data:`ENV_REPORTS`; the hook's ``sitecustomize`` calls
:func:`install_worker`, which writes the worker's peak resident memory (and,
in a traced panel, its own spans) next to the queue before each task result
is published, so the parent can read them as soon as the task is done.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variables naming the directory queue workers report to, and
#: whether they record spans.
ENV_REPORTS = "PERFBENCH_WORKER_REPORTS"
ENV_TRACE = "PERFBENCH_WORKER_TRACE"

#: Layers whose exclusive times partition a panel's wall time.
PARTITION = frozenset({
    "plan.build", "plan.presolve", "trace.generate", "sched.execute",
    "engine.drive", "verify",
})

_clock = time.perf_counter


class Recorder:
    """Span totals and counters of one traced panel (or one worker)."""

    def __init__(self) -> None:
        #: name -> [exclusive seconds, inclusive seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        #: name -> count (paging calls per algorithm, store hits, ...)
        self.counts: Dict[str, int] = {}
        #: Seconds spent in partition spans opened with no span around them.
        self.root_seconds = 0.0
        #: Name of the algorithm whose engine drive is open, if any.
        self.alg: Optional[str] = None
        self._frames: List[List[float]] = []  # nested partition seconds
        self._open: Dict[str, bool] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if self._open.get(name):
            return fn(*args, **kwargs)
        partition = name in PARTITION
        if partition:
            frame = [0.0]
            self._frames.append(frame)
        self._open[name] = True
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self._open[name] = False
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0.0, 0.0, 0]
            total[1] += elapsed
            total[2] += 1
            if partition:
                self._frames.pop()
                total[0] += elapsed - frame[0]
                if self._frames:
                    self._frames[-1][0] += elapsed
                else:
                    self.root_seconds += elapsed
            else:
                total[0] += elapsed

    def span_of_alg(self, name: str, alg: str, fn: Callable, *args, **kwargs):
        """A span that also records which algorithm the nested work serves."""
        outer, self.alg = self.alg, alg
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self.alg = outer

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add another recorder's :meth:`snapshot` (a worker's) to this one."""
        for name, (excl, incl, calls) in snapshot["totals"].items():
            total = self.totals.setdefault(name, [0.0, 0.0, 0])
            total[0] += excl
            total[1] += incl
            total[2] += calls
        for name, n in snapshot["counts"].items():
            self.count(name, n)

    def snapshot(self) -> Dict[str, Any]:
        return {"totals": self.totals, "counts": self.counts}

    def exclusive(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0.0, 0))[0]

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0.0, 0.0, 0))[2])


# --------------------------------------------------------------------------- #
# Patch targets
# --------------------------------------------------------------------------- #

_saved: List[Tuple[Any, str, Any]] = []


def _find(module: str, attr: Optional[str] = None) -> Any:
    """A module of the program or one of its attributes."""
    found = importlib.import_module(module)
    return found if attr is None else getattr(found, attr)


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace ``owner.attr`` with ``make(original)``."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    _saved.append((owner, attr, original))
    setattr(owner, attr, make(original))


def install(rec: Recorder) -> None:
    """Wrap the layer entry points.

    A target the program renamed or removed raises (ImportError,
    AttributeError or KeyError), so a layer can never silently read 0.
    """
    if _saved:
        raise RuntimeError("probes are already installed")

    def plain(name: str) -> Callable[[Any], Any]:
        def make(fn):
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, *args, **kwargs)
            return wrapper
        return make

    # trace.generate: materialized builds, and every segment a stream yields.
    _patch(_find("repro.experiments.specs", "ExperimentSpec"), "build_trace",
           plain("trace.generate"))

    def make_iter(fn):
        def wrapper(stream):
            inner = fn(stream)
            while True:
                try:
                    segment = rec.call("trace.generate", next, inner)
                except StopIteration:
                    return
                yield segment
        return wrapper

    _patch(_find("repro.traffic.stream", "TraceStream"), "__iter__", make_iter)

    # plan.presolve: the planner's SO-BMA pre-solve step for each task group.
    _patch(_find("repro.exec.plan"), "_presolve_task", plain("plan.presolve"))

    # engine.drive, tagged with the algorithm so paging calls can be split.
    def make_run_simulation(fn):
        def wrapper(algorithm, *args, **kwargs):
            return rec.span_of_alg("engine.drive", algorithm.name, fn,
                                   algorithm, *args, **kwargs)
        return wrapper

    # Patched where it is called from: each module binds it at import time.
    for module in ("repro.simulation.engine", "repro.simulation.runner",
                   "repro.exec.runtime"):
        _patch(_find(module), "run_simulation", make_run_simulation)

    def make_driver_method(fn):
        def wrapper(self, *args, **kwargs):
            return rec.span_of_alg("engine.drive", self.algorithm.name, fn,
                                   self, *args, **kwargs)
        return wrapper

    driver = _find("repro.simulation.engine", "StreamingSimulation")
    for method in ("feed", "finish"):
        _patch(driver, method, make_driver_method)

    def make_process(fn):
        def wrapper(self, pair):
            rec.count(f"paging.process_calls.{rec.alg}")
            return rec.call("paging.process", fn, self, pair)
        return wrapper

    _patch(_find("repro.core.uniform", "PerNodePagingMatcher"), "process", make_process)
    _patch(_find("repro.matching.static_solver"), "max_weight_matching_arrays",
           plain("solver.round"))

    def make_store_get(fn):
        def wrapper(self, *args, **kwargs):
            hit = rec.call("store.get", fn, self, *args, **kwargs)
            rec.count("store.hit" if hit is not None else "store.miss")
            return hit
        return wrapper

    store = _find("repro.store.run_store", "RunStore")
    _patch(store, "get", make_store_get)
    _patch(store, "put", plain("store.put"))
    _patch(store, "reindex", plain("store.reindex"))


def uninstall() -> None:
    """Restore every wrapped entry point."""
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)


def install_worker(report_dir: str, started: float, traced: bool) -> None:
    """Report this queue worker to ``report_dir/<pid>.json``.

    The report carries the worker's peak resident memory and, when
    ``traced``, its spans.  ``started`` is the clock reading when the
    interpreter began running the hook, so the import of the program is
    recorded as ``worker.import``.
    """
    rec = Recorder()
    if traced:
        install(rec)
        rec.totals["worker.import"] = [_clock() - started] * 2 + [1]
    path = Path(report_dir) / f"{os.getpid()}.json"

    def make_complete(fn):
        def wrapper(self, *args, **kwargs):
            # Written before the result is published: the parent may stop
            # this worker as soon as it has seen the last result.
            report = rec.snapshot()
            report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(report))
            os.replace(tmp, path)
            return fn(self, *args, **kwargs)
        return wrapper

    _patch(_find("repro.exec.queue", "WorkQueue"), "complete", make_complete)


def read_worker_reports(report_dir: Path) -> List[Dict[str, Any]]:
    """The last report of every worker under ``report_dir``."""
    return [json.loads(p.read_text()) for p in sorted(report_dir.glob("*.json"))]
