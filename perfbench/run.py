#!/usr/bin/env python3
"""Layer-attributed end-to-end benchmark of figure-style panels.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-replay --seed 2023 --seconds 30 --trace 0

Each run measures one workload (see ``perfbench/workloads.py``) as a closed
loop with one client: a panel goes from its spec list through
``build_execution_plan`` and ``execute_plan`` to results checked against
``perfbench/pins.json``, and the next panel starts when it returns.  Every
panel starts from an empty solver memo, so the SO-BMA pre-solve is paid
each time; the topology memo is warmed during set-up.

A run cycles through eight panel seeds derived from ``--seed`` (``8 *
seed`` to ``8 * seed + 7``): how much work a panel does depends on its
traces by up to 20% on fig4, so one trace per run would make runs with
different seeds incomparable.

``--trace 0`` prints the end-to-end metrics: median and 90th-percentile
panel time, simulated requests per second, set-up time (median of several
fresh processes), peak resident memory of the process tree and the failed
fraction.  ``--trace 1`` runs the first panel seed only, alternating
untraced and traced panels, and prints the time of each layer
(``perfbench/probes.py``), the exact counts, the unattributed rest and the
tracing overhead.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any spec run failed or missed its pinned costs.

Other modes: ``--self-test`` runs every workload at small size and checks
the output contract and the correctness gate; ``--write-pins SEED ...``
regenerates the pinned costs on the serial backend.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"
WORK = HERE / ".work"

#: The benchmark seed when none is given, and a second seed kept out of
#: tuning so a later claim can be rechecked on inputs it was not fitted to.
DEFAULT_SEED = 2023
HELD_OUT_SEED = 4099
#: Panel seeds per run (see the module docstring).
PANEL_SEEDS = 8

#: Fresh processes timed from launch to ready; set-up time is their median.
SETUP_SAMPLES = 5
#: The tail percentile, and the fewest untraced panels a run measures.  A
#: run has 10-40 panels, too few for a percentile with ten panels beyond it
#: to lie above the median, so the tail is the 90th percentile,
#: interpolated between the slowest few panels; its sample count is printed.
TAIL_PERCENTILE = 90
MIN_PANELS = 10
#: On the serial workloads the traced run fails when more than this share
#: of the panel is outside the named work layers (see ``residue_frac``).
MAX_RESIDUE_FRAC = 0.05

#: Host-speed calibration.  The benchmark host is shared, and its speed
#: drifts by up to 2x within minutes, which would swamp any comparison of
#: raw wall times between runs.  A fixed pure-Python loop is therefore timed
#: before and after every panel, on both cores at once, and times are
#: reported normalized: wall seconds x CALIBRATION_REF_S / loop seconds,
#: that is, seconds on a host where the loop takes CALIBRATION_REF_S (this
#: 2-vCPU host when quiet).  On this host the normalization cut the spread
#: of 40-panel medians from 11% to 4% (fig4) and from 29% to 10% (zoo).
#: Raw medians are printed alongside.
CALIBRATION_REF_S = 0.014

#: Every ``REPRO_*`` variable is removed from the benchmark process (and so
#: from its queue workers), then these are set: results and timings must
#: not depend on the operator's shell.  ``REPRO_BENCH_SCALE`` sizes the
#: panels (``workloads.py``): 0 in the self-test's small mode.
PINNED_ENV = {"REPRO_SOLVER_CACHE": "16", "REPRO_RNG_MODE": "counter",
              "REPRO_BENCH_SCALE": "0.05"}

clock = time.perf_counter


def log(text: str = "") -> None:
    print(text, flush=True)


def calibrate() -> float:
    """Seconds for a fixed loop of the dict and integer operations that
    dominate the replay loops (100k iterations)."""
    counters: Dict[int, int] = {}
    start = clock()
    for key in range(0, 700_000, 7):
        k = key % 4093
        c = counters.get(k, 0) + 1
        counters[k] = c if c < 5 else 0
    return clock() - start


class Calibrator:
    """Times :func:`calibrate` here and, at the same moment, in a helper.

    Running the loop on both cores tracks the host's slowdowns better than
    one core alone, for the serial workloads too (measured on this host).
    The helper is a plain child process (``--calibrate-helper``) that times
    the loop once per line read from its stdin and exits at end of input;
    it is waited for on exit.  (A multiprocessing pool would also start a
    resource-tracker process that nothing reaps.)
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--calibrate-helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        own = calibrate()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: calibration helper exited ({self._proc.poll()})")
        return (own + float(line)) / 2

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        stop(self._proc)


def stop(proc: subprocess.Popen) -> None:
    """Close a child's pipes and wait for it to end, killing it if it lingers."""
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def calibrate_helper() -> int:
    """The helper side of :class:`Calibrator`."""
    for _ in sys.stdin:
        print(calibrate(), flush=True)
    return 0


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


def pin_environment(tmp_dir: Path, small: bool) -> None:
    """Fix the program's environment knobs; temp files go under ``tmp_dir``."""
    from probes import ENV_REPORTS, ENV_TRACE

    for key in [k for k in os.environ
                if k.startswith("REPRO_") or k in (ENV_REPORTS, ENV_TRACE)]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    if small:
        os.environ["REPRO_BENCH_SCALE"] = "0"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    from repro import core, topology, traffic  # noqa: F401  (registry population)
    import repro.exec  # noqa: F401
    import repro.store  # noqa: F401


def panel_seeds(seed: int, traced: bool) -> List[int]:
    """The panel seeds a run cycles through (the first alone when traced)."""
    return [seed * PANEL_SEEDS + k for k in range(1 if traced else PANEL_SEEDS)]


def set_up(workload: str, seeds: Sequence[int]) -> list:
    """Imports, registries, the workload's panels and the topology memo."""
    import workloads

    import_program()
    works = [workloads.build(workload, seed) for seed in seeds]
    for spec in works[0].specs:
        spec.topology.build(default_n_racks=spec.traffic.params["n_nodes"])
    return works


def measure_setup(args, calibrator: Calibrator) -> List[List[float]]:
    """Seconds from launching a fresh benchmark process to its first panel.

    Returns [raw seconds, normalized seconds] per probe, each probe
    normalized by the calibrations just before and after it.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    if args.small:
        command.append("--small")
    samples = []
    before = calibrator()
    for _ in range(SETUP_SAMPLES):
        start = clock()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = clock() - start
            proc.stdout.read()
        finally:
            stop(proc)
        code = proc.returncode
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        after = calibrator()
        samples.append([elapsed, elapsed * CALIBRATION_REF_S * 2 / (before + after)])
        before = after
    return samples


def environment_record() -> Dict[str, Any]:
    """Host and program facts recorded with every result."""
    import numpy
    from repro.core.rng import resolve_rng_mode
    from repro.matching import numba_backend_active

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_active": bool(numba_backend_active()),
        "rng_mode": resolve_rng_mode(None),
        "pinned_env": dict(PINNED_ENV),
    }


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #


def pin_of(result) -> List[int]:
    """[routing cost, reconfiguration cost, matched requests] of a run.

    Costs are sums of integral path lengths and multiples of alpha, and the
    matched fraction is matched requests over requests, so three integers
    pin a run exactly (see :func:`matches`).
    """
    return [int(result.total_routing_cost), int(result.total_reconfiguration_cost),
            round(result.matched_fraction * result.n_requests)]


def matches(result, pin: Sequence[int]) -> bool:
    return (result.total_routing_cost == pin[0]
            and result.total_reconfiguration_cost == pin[1]
            and result.matched_fraction == pin[2] / result.n_requests)


def load_pins(workload: str) -> Dict[int, List[List[int]]]:
    """Pinned panels of ``workload``: panel seed -> one pin per spec."""
    entry = json.loads(PINS.read_text())["workloads"].get(workload, {})
    return {int(seed): rows for seed, rows in entry.get("panels", {}).items()}


def check_panel(work, results: Sequence[Any], expected) -> List[str]:
    """One message per spec run that failed, broke an invariant or missed its pin."""
    from repro.simulation.results import RunResult

    problems = []
    labels = work.labels
    for i, (spec, result) in enumerate(zip(work.specs, results)):
        label = f"seed {work.seed} {labels[i]}"
        if not isinstance(result, RunResult):
            problems.append(f"{label}: {getattr(result, 'message', result)}")
            continue
        n = spec.traffic.params["n_requests"]
        reconf = result.total_reconfiguration_cost
        if (result.algorithm != spec.algorithm.name or result.n_requests != n
                or not 0.0 <= result.matched_fraction <= 1.0
                or result.total_routing_cost < n
                or reconf < 0 or reconf % spec.algorithm.alpha):
            problems.append(f"{label}: result breaks an invariant: {pin_of(result)}")
        elif expected is not None and not matches(result, expected[i]):
            problems.append(f"{label}: got {pin_of(result)}, pinned {expected[i]}")
    if len(results) != len(work.specs):
        problems.append(f"seed {work.seed}: {len(results)} results for "
                        f"{len(work.specs)} specs")
    return problems


# --------------------------------------------------------------------------- #
# One panel
# --------------------------------------------------------------------------- #


@dataclass
class Panel:
    """The outcome of one panel: wall time, results and what went wrong."""

    wall: float
    results: List[Any]
    problems: List[str]
    hygiene: Dict[str, Any]
    memo: Dict[str, int]  # solver memo counters after the panel
    worker_rss_kb: int  # sum of the queue workers' peak resident memory
    rec: Any = None  # the probes.Recorder of a traced panel
    residue_frac: float = 0.0  # see WORK_LAYERS; set for a traced panel
    calibration: float = CALIBRATION_REF_S  # mean loop seconds around the panel

    @property
    def seconds(self) -> float:
        """Wall time normalized to the reference host speed."""
        return self.wall * CALIBRATION_REF_S / self.calibration


def _untimed(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_panel(work, index: int, expected, workdir: Path, rec=None) -> Panel:
    """Run one panel; ``rec`` is a probes.Recorder for a traced panel."""
    from probes import ENV_REPORTS, ENV_TRACE, read_worker_reports
    from repro.exec import build_execution_plan, execute_plan
    from repro.matching import solver_cache_clear, solver_cache_info
    from repro.store import RunStore

    queue = work.backend == "queue"
    call = rec.call if rec is not None else _untimed
    store_dir = workdir / f"store-{index}"
    queue_dir = workdir / f"queue-{index}"
    report_dir = workdir / f"reports-{index}"
    saved_path = os.environ.get("PYTHONPATH")
    if queue:
        # Queue workers report their peak memory (and spans when traced)
        # through perfbench/hook/sitecustomize.py.
        report_dir.mkdir()
        os.environ[ENV_REPORTS] = str(report_dir)
        os.environ[ENV_TRACE] = "1" if rec is not None else "0"
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(HERE / "hook"), saved_path) if p)
    solver_cache_clear()
    try:
        start = clock()
        store = RunStore(store_dir) if work.store else False
        plan = call("plan.build", build_execution_plan, list(work.specs),
                    store=store, on_error="collect")
        options = ({"queue_dir": str(queue_dir), "poll_interval": work.poll_interval}
                   if queue else {})
        results = call("sched.execute", execute_plan, plan, backend=work.backend,
                       n_workers=work.workers, **options)
        problems = call("verify", check_panel, work, results, expected)
        wall = clock() - start
        memo = solver_cache_info()
    finally:
        if queue:
            del os.environ[ENV_REPORTS], os.environ[ENV_TRACE]
            if saved_path is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved_path
    hygiene = queue_hygiene(queue_dir, store_dir, results) if queue else {}
    reports = read_worker_reports(report_dir) if queue else []
    panel = Panel(wall, results, problems, hygiene, memo,
                  sum(r["maxrss_kb"] for r in reports), rec)
    if rec is not None:
        panel.residue_frac = 1.0 - sum(rec.exclusive(n) for n in WORK_LAYERS) / wall
        for report in reports:
            rec.merge(report)
    for path in (store_dir, queue_dir, report_dir):
        shutil.rmtree(path, ignore_errors=True)
    return panel


def queue_hygiene(queue_dir: Path, store_dir: Path, results) -> Dict[str, Any]:
    """Anomalies the queue absorbed, and anything a panel left behind.

    The worker stats files count the anomalies each worker absorbed.  The
    worker that finishes last is usually stopped by the parent (SIGTERM once
    the last result is in) before it writes its file, sometimes halfway
    through; so the queue directory itself is audited too: a requeue shows
    as a result with ``attempts`` > 1, a terminal failure as a file in
    ``failed/``, an unfinished task in ``tasks/`` or ``claimed/``.  Torn
    stats files are counted apart, since they come from that stop.
    """
    workers = queue_dir / "workers"
    stats = [json.loads(p.read_text()) for p in sorted(workers.glob("*.json"))]
    anomalies = sum(sum(s.get("queue", {}).values()) for s in stats)
    leftovers = [str(p) for d in ("tasks", "claimed", "failed")
                 for p in (queue_dir / d).iterdir()]
    leftovers += [str(p) for p in store_dir.rglob(".*.tmp-*")]
    leftovers += [str(p) for p in Path(tempfile.gettempdir()).glob("repro-queue-*")]
    attempts = [int(r.extra.get("attempts", 1)) for r in results if hasattr(r, "extra")]
    return {
        "worker_stats_files": len(stats),
        "worker_stats_torn": len(list(workers.glob(".*.tmp-*"))),
        "anomalies": anomalies + len(leftovers) + sum(a - 1 for a in attempts),
        "leftovers": leftovers,
    }


# --------------------------------------------------------------------------- #
# Measurement loop
# --------------------------------------------------------------------------- #


def run_loop(works: list, args, pins: Dict[int, Any], workdir: Path, traced: bool,
             calibrator: Calibrator) -> List[Panel]:
    """Panels back to back for ``--seconds``, cycling through the panel seeds.

    A traced run alternates untraced and traced panels.  A panel seed without
    pins takes its first clean panel as the reference that every later
    panel of that seed must reproduce exactly.
    """
    import probes

    panels: List[Panel] = []
    expected = dict(pins)
    minimum = 4 if traced else MIN_PANELS
    deadline = clock() + args.seconds
    give_up = clock() + args.seconds + 100
    before = calibrator()
    while (clock() < deadline or len(panels) < minimum) and clock() < give_up:
        work = works[len(panels) % len(works)]
        rec = None
        if traced and len(panels) % 2 == 1:
            rec = probes.Recorder()
            probes.install(rec)
        try:
            panel = run_panel(work, len(panels), expected.get(work.seed), workdir, rec)
        finally:
            probes.uninstall()
        after = calibrator()
        panel.calibration = (before + after) / 2
        before = after
        panels.append(panel)
        if work.seed not in expected and not panel.problems:
            expected[work.seed] = [pin_of(r) for r in panel.results]
    return panels


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #

ALGORITHMS = ("rbma", "bma", "oblivious", "so-bma", "uniform", "hybrid", "rotor",
              "predictive", "greedy")

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "trace.generate_s": "s", "plan.build_s": "s", "plan.presolve_s": "s",
    "solver.round_s": "s", "solver.rounds": "count", "solver.memo_hit_ratio": "ratio",
    "sched.execute_s": "s", "engine.drive_s": "s", "engine.overhead_s": "s",
    **{f"alg.{name}_s": "s" for name in ALGORITHMS},
    "paging.process_s": "s", "paging.process_calls": "count",
    "alg.rbma.special_frac": "ratio",
    "store.get_s": "s", "store.put_s": "s", "store.reindex_s": "s",
    "store.hit_ratio": "ratio",
    "queue.attempts": "count", "queue.anomalies": "count",
    "worker.import_s": "s", "verify_s": "s",
    "unattributed_s": "s", "residue_frac": "ratio", "tracing.overhead_frac": "ratio",
}

#: Layers that do a panel's work.  ``residue_frac`` is the share of the
#: panel wall that none of them claims in the benchmark process: scheduler
#: bookkeeping and unattributed time.  The top-level spans cover the whole
#: timed region, so ``unattributed_s`` alone is near zero by construction.
#: On the queue workload the work runs in the workers and the parent mostly
#: waits, so there the residue is close to 1.
WORK_LAYERS = ("plan.build", "plan.presolve", "trace.generate", "engine.drive", "verify")

#: Counts that must repeat exactly from one traced panel to the next.
EXACT = ("solver.rounds", "solver.memo_hit_ratio", "paging.process_calls",
         "alg.rbma.special_frac", "queue.attempts", "queue.anomalies")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(panel: Panel) -> Dict[str, float]:
    """Per-layer metrics of one traced panel, in measured seconds."""
    rec = panel.rec
    alg_time = {name: 0.0 for name in ALGORITHMS}
    rbma_requests = 0
    attempts = 0
    for result in panel.results:
        if hasattr(result, "total_elapsed_seconds"):
            alg_time[result.algorithm] = (alg_time.get(result.algorithm, 0.0)
                                          + result.total_elapsed_seconds)
            attempts += int(result.extra.get("attempts", 1))
            if result.algorithm == "rbma":
                rbma_requests += result.n_requests
    memo = panel.memo
    hits, misses = rec.counts.get("store.hit", 0), rec.counts.get("store.miss", 0)
    drive = rec.exclusive("engine.drive")
    return {
        "trace.generate_s": rec.exclusive("trace.generate"),
        "plan.build_s": rec.exclusive("plan.build"),
        "plan.presolve_s": rec.exclusive("plan.presolve"),
        "solver.round_s": rec.inclusive("solver.round"),
        "solver.rounds": rec.calls("solver.round"),
        "solver.memo_hit_ratio": _ratio(memo["hits"], memo["hits"] + memo["misses"]),
        "sched.execute_s": rec.exclusive("sched.execute"),
        "engine.drive_s": drive,
        "engine.overhead_s": drive - sum(alg_time.values()),
        **{f"alg.{name}_s": alg_time[name] for name in ALGORITHMS},
        "paging.process_s": rec.inclusive("paging.process"),
        "paging.process_calls": rec.calls("paging.process"),
        "alg.rbma.special_frac": _ratio(rec.counts.get("paging.process_calls.rbma", 0),
                                        rbma_requests),
        "store.get_s": rec.inclusive("store.get"),
        "store.put_s": rec.inclusive("store.put"),
        "store.reindex_s": rec.inclusive("store.reindex"),
        "store.hit_ratio": _ratio(hits, hits + misses),
        "queue.attempts": attempts,
        "queue.anomalies": panel.hygiene.get("anomalies", 0),
        "worker.import_s": rec.inclusive("worker.import"),
        "verify_s": rec.exclusive("verify"),
        "unattributed_s": panel.wall - rec.root_seconds,
        "residue_frac": panel.residue_frac,
    }


def peak_rss_mb(panels: List[Panel]) -> float:
    """Peak resident memory of the workload's process tree.

    This process's own peak plus, for the queue workload, the largest sum
    of the peaks of one panel's workers, which run at the same time: an
    upper bound on the tree's simultaneous peak.  A worker reports its peak
    when it completes a task, so one that claimed none is not counted.  The
    set-up probes and the calibration helper are not part of the workload
    and not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(p.worker_rss_kb for p in panels)) / 1024.0


def tail(values: Sequence[float]) -> float:
    """The TAIL_PERCENTILE-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end(panels: List[Panel], requests: int,
               setup: List[List[float]]) -> Dict[str, Any]:
    """End-to-end metrics; panel times come from the untraced panels only.

    Times are normalized to the reference host speed; ``raw`` keeps the
    measured wall seconds.
    """
    untraced = [p for p in panels if p.rec is None]
    seconds = [p.seconds for p in untraced]
    walls = [p.wall for p in untraced]
    attempted = sum(len(p.results) for p in panels)
    failed = sum(len(p.problems) for p in panels)
    return {
        "panel_s": {"value": statistics.median(seconds), "unit": "s",
                    "raw": statistics.median(walls)},
        "panel_s_tail": {"value": tail(seconds), "unit": "s", "raw": tail(walls),
                         "percentile": TAIL_PERCENTILE, "samples": len(seconds)},
        "requests_per_s": {"value": requests / statistics.median(seconds), "unit": "1/s",
                           "raw": requests / statistics.median(walls)},
        "setup_s": {"value": statistics.median(s[1] for s in setup), "unit": "s",
                    "raw": statistics.median(s[0] for s in setup), "samples": len(setup)},
        "peak_rss_mb": {"value": peak_rss_mb(panels), "unit": "MB"},
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "attempted": attempted, "failed": failed},
    }


def per_layer(panels: List[Panel]) -> Dict[str, Any]:
    """Medians over the traced panels; exact counts checked to repeat."""
    traced = [p for p in panels if p.rec is not None]
    untraced = [p for p in panels if p.rec is None]
    rows = [layer_values(p) for p in traced]
    metrics: Dict[str, Any] = {}
    for name, unit in LAYER_UNITS.items():
        if name == "tracing.overhead_frac":
            value = (statistics.median(p.seconds for p in traced)
                     / statistics.median(p.seconds for p in untraced) - 1.0)
        elif name in EXACT:
            value = rows[0][name]
        else:
            value = statistics.median(row[name] for row in rows)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "metrics": metrics,
        "unsteady_counts": [name for name in EXACT if len({row[name] for row in rows}) > 1],
        "traced_panel_s": statistics.median(p.wall for p in traced),
        "traced_panels": len(traced),
        "rows": rows,
    }


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #


def declared_metrics(key: str) -> Dict[str, str]:
    """Metric name -> unit for one list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def print_end_to_end(metrics: Dict[str, Any]) -> None:
    log("end-to-end metrics (seconds normalized to the reference host speed):")
    for name, m in metrics.items():
        extra = f"  (raw {m['raw']:.6g})" if "raw" in m else ""
        if name == "panel_s_tail":
            extra += f"  (p{m['percentile']} of {m['samples']} panels)"
        elif name == "setup_s":
            extra += f"  (median of {m['samples']} fresh processes)"
        elif name == "failed_frac":
            extra = f"  ({m['failed']} of {m['attempted']} spec runs)"
        log(f"  {name:<16} {m['value']:>14.6f} {m['unit']}{extra}")


def print_layers(report: Dict[str, Any], work) -> None:
    wall = report["traced_panel_s"]
    log(f"per-layer metrics (median of {report['traced_panels']} traced panels, "
        f"measured seconds, traced panel {wall:.4f} s):")
    if work.backend == "queue":
        log("  (trace.generate, engine.drive, paging and worker.import run in the "
            f"{work.workers} concurrent workers: summed over workers, so shares of "
            "the panel can exceed 100%)")
    for name, m in report["metrics"].items():
        share = ""
        if m["unit"] == "s" and not name.startswith(("alg.", "worker.")):
            share = f"  {100.0 * m['value'] / wall:6.1f}% of panel"
        value = m["value"]
        text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        log(f"  {name:<24} {text} {m['unit']}{share}")


def measure(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    try:
        pin_environment(workdir / "tmp", args.small)
        return measure_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_in(args, workdir: Path) -> int:
    traced = bool(args.trace)
    with Calibrator() as calibrator:
        setup = measure_setup(args, calibrator)
        works = set_up(args.workload, panel_seeds(args.seed, traced))
        pinned = {} if args.small else load_pins(args.workload)
        pins = {w.seed: pinned[w.seed] for w in works if w.seed in pinned}
        if args.wrong_pin:
            pins = {seed: [[rows[0][0] + 1, *rows[0][1:]], *rows[1:]]
                    for seed, rows in pins.items()}
        work = works[0]
        requests = sum(spec.traffic.params["n_requests"] for spec in work.specs)
        env = environment_record()
        log(f"workload {args.workload}, seed {args.seed} (default {DEFAULT_SEED}, "
            f"held-out {HELD_OUT_SEED}), panel seeds {[w.seed for w in works]}, "
            f"{len(work.specs)} specs and {requests} requests per panel, backend "
            f"{work.backend} x{work.workers}, costs pinned for {len(pins)} of "
            f"{len(works)} panel seeds (the rest checked for repeatability)")
        log("environment: " + json.dumps(env, sort_keys=True))
        panels = run_loop(works, args, pins, workdir, traced, calibrator)

    e2e = end_to_end(panels, requests, setup)
    problems = [msg for p in panels for msg in p.problems]
    hygiene = [p.hygiene for p in panels if p.hygiene.get("anomalies")]
    correct = not problems and not hygiene
    log(f"host speed: calibration loop median "
        f"{statistics.median(p.calibration for p in panels):.4f} s "
        f"(reference {CALIBRATION_REF_S} s)")
    print_end_to_end(e2e)
    payload = {"environment": env, "workload": args.workload, "seed": args.seed,
               "panel_seeds": [w.seed for w in works],
               "panel_walls": [p.wall for p in panels],
               "calibrations": [p.calibration for p in panels], "end_to_end": e2e}
    if traced:
        layers = per_layer(panels)
        print_layers(layers, work)
        if layers["unsteady_counts"]:
            correct = False
            log(f"error: counts differ between traced panels: {layers['unsteady_counts']}")
        residue = layers["metrics"]["residue_frac"]["value"]
        # Gated at full size only: the self-test's small panels last ~50 ms,
        # and the scheduler's fixed few milliseconds are a larger share.
        if work.backend == "serial" and not args.small and residue > MAX_RESIDUE_FRAC:
            correct = False
            log(f"error: {residue:.1%} of the traced panel is outside the work layers "
                f"{WORK_LAYERS} (at most {MAX_RESIDUE_FRAC:.0%} allowed)")
        payload["per_layer"] = layers
        metrics = {name: layers["metrics"][name] for name in declared_metrics("per_layer")}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in declared_metrics("end_to_end")}
    for msg in problems[:20]:
        log(f"error: {msg}")
    for item in hygiene[:5]:
        log(f"error: queue hygiene: {item}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": e2e["failed_frac"]["attempted"],
        "failed": e2e["failed_frac"]["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


# --------------------------------------------------------------------------- #
# Pins and self-test
# --------------------------------------------------------------------------- #


def write_pins(seeds: Sequence[int]) -> int:
    """Pin every spec of every panel seed of ``seeds``, on the serial backend."""
    import workloads

    scratch = WORK / f"pins-{os.getpid()}"
    pin_environment(scratch / "tmp", small=False)
    import_program()
    from repro.exec import build_execution_plan, execute_plan

    payload: Dict[str, Any] = {
        "description": "[total_routing_cost, total_reconfiguration_cost, matched "
        "requests] of every spec run, per workload and panel seed (benchmark seed "
        "s covers panel seeds 8s to 8s+7), computed on the serial backend without "
        "a store.",
        "workloads": {},
    }
    try:
        for name in workloads.NAMES:
            entry: Dict[str, Any] = {"labels": None, "panels": {}}
            for seed in seeds:
                for panel_seed in panel_seeds(seed, traced=False):
                    work = workloads.build(name, panel_seed)
                    entry["labels"] = work.labels
                    plan = build_execution_plan(list(work.specs), store=False)
                    results = execute_plan(plan, backend="serial")
                    rows = [pin_of(r) for r in results]
                    problems = check_panel(work, results, rows)
                    if problems:
                        raise SystemExit(f"error: cannot pin {name}: {problems}")
                    entry["panels"][str(panel_seed)] = rows
                log(f"pinned {name} seed {seed}")
            payload["workloads"][name] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    PINS.write_text(format_pins(payload))
    return 0


def format_pins(payload: Dict[str, Any]) -> str:
    """pins.json with one line per panel seed, so a diff names the seed."""
    lines = ["{", f' "description": {json.dumps(payload["description"])},',
             ' "workloads": {']
    names = list(payload["workloads"])
    for i, name in enumerate(names):
        entry = payload["workloads"][name]
        seeds = list(entry["panels"])
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(f'   "labels": {json.dumps(entry["labels"])},')
        lines.append('   "panels": {')
        for j, seed in enumerate(seeds):
            comma = "," if j < len(seeds) - 1 else ""
            rows = json.dumps(entry["panels"][seed], separators=(",", ":"))
            lines.append(f"    {json.dumps(seed)}: {rows}{comma}")
        lines.append("   }")
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def self_test() -> int:
    """Run every workload small; check the output contract and the pin gate."""
    import workloads

    def run(*extra: str):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *extra],
                              capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        return proc, (json.loads(lines[-1]) if lines else {})

    failures = []
    for name in workloads.NAMES:
        failed_before = len(failures)
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            proc, result = run("--workload", name, "--seed", "11", "--seconds", "1",
                               "--trace", str(trace), "--small")
            where = f"{name} trace {trace}"
            if proc.returncode != 0 or not result.get("correct"):
                failures.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared_metrics(key):
                failures.append(f"{where}: metrics {units}")
            names = LAYER_UNITS if trace else (*declared_metrics(key), "failed_frac")
            missing = [m for m in names if f" {m} " not in proc.stdout]
            if missing:
                failures.append(f"{where}: report lacks {missing}")
        log(f"self-test: {name} {'FAILED' if len(failures) > failed_before else 'ok'}")
    # A deliberately wrong pin must fail the run: fig4-replay at full size on
    # the default seed, whose panels are all pinned.
    proc, result = run("--workload", "fig4-replay", "--seed", str(DEFAULT_SEED),
                       "--seconds", "1", "--trace", "0", "--wrong-pin")
    if proc.returncode == 0 or result.get("correct") or result.get("failed", 0) < 1:
        failures.append(f"wrong pin not caught: exit {proc.returncode}, {result}")
    else:
        log(f"self-test: wrong pin caught ({result['failed']} of "
            f"{result['attempted']} spec runs failed, exit {proc.returncode})")
    for failure in failures:
        log(f"self-test failure: {failure}")
    log("self-test: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def run_all(args) -> int:
    """Measure every workload in turn, each in a fresh process.

    Prints each workload's report, then one JSON line whose metrics are
    named ``<workload>/<metric>``.
    """
    import workloads

    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                               "metrics": {}}
    code = 0
    for name in workloads.NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        log("\n".join(lines[:-1] if result else lines))
        code = max(code, proc.returncode)
        summary["correct"] = summary["correct"] and bool(result.get("correct"))
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary), flush=True)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"),
                        default="fig4-replay",
                        help="the workload to measure, or all three in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"benchmark seed, >= 0 (default {DEFAULT_SEED}; held-out "
                        f"seed for rechecking claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to run panels back to back")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced panels")
    parser.add_argument("--small", action="store_true",
                        help="shrink the workload (self-test size; costs unpinned)")
    parser.add_argument("--wrong-pin", action="store_true",
                        help="perturb one pinned cost per panel (checks the gate)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--calibrate-helper", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload small and check the benchmark")
    parser.add_argument("--write-pins", type=int, nargs="+", metavar="SEED",
                        help="regenerate pins.json for these benchmark seeds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.calibrate_helper:
        return calibrate_helper()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.write_pins:
        return write_pins(args.write_pins)
    if args.setup_probe:
        pin_environment(Path(tempfile.gettempdir()), args.small)
        set_up(args.workload, panel_seeds(args.seed, bool(args.trace)))
        log("ready")
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
