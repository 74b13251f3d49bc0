"""Command-line interface.

Lets users drive the common workflows without writing Python::

    python -m repro run experiment.json --out results.json
    python -m repro simulate --workload facebook-database --algorithm rbma --b 12
    python -m repro compare  --workload microsoft --b 6 --algorithms rbma bma so-bma
    python -m repro sweep    --workload zipf --b-values 2 4 8 --algorithms rbma bma
    python -m repro generate-trace --workload facebook-hadoop --requests 50000 --out trace.csv
    python -m repro analyze-trace trace.csv
    python -m repro list
    python -m repro runs list --store results/.repro-store

Every simulation path is driven by a declarative
:class:`~repro.experiments.specs.ExperimentSpec`; ``run`` executes one
straight from a JSON file.  All subcommands print plain-text tables (the same
renderers the benchmark harness uses) and exit non-zero on configuration
errors.  Invoked without a subcommand, the CLI prints usage and exits 0.

The simulation commands take ``--store [DIR]`` / ``--no-store`` to control
the persistent run store (:mod:`repro.store`): with a store, re-running an
unchanged command serves every (spec, seed) cell from disk instead of
simulating.  ``repro runs list|show|stats|gc`` inspects and maintains a
store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from ._version import __version__
from .analysis import format_comparison_table, format_series_table
from .analysis.plotting import plot_results
from .config import SweepConfig
from .core import available_algorithms
from .errors import ConfigurationError, ReproError
from .experiments import ExperimentSpec, ProgressObserver
from .obs import snapshot
from .paging import available_paging_policies
from .simulation import (
    ExperimentRunner,
    aggregate_runs,
    run_specs_parallel,
    run_sweep,
)
from .store import (
    group_statistics,
    resolve_store,
    store_statistics,
)
from .topology import available_topologies
from .traffic import (
    available_workloads,
    compute_trace_statistics,
    make_workload,
    save_trace_csv,
    stream_trace_csv,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online b-matching for reconfigurable optical datacenters "
        "(reproduction of Bienkowski et al., SC 2023)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="facebook-database",
                       help="workload name (see `repro list`)")
        p.add_argument("--nodes", type=int, default=100, help="number of racks")
        p.add_argument("--requests", type=int, default=20_000, help="number of requests")
        p.add_argument("--topology", default="fat-tree", help="fixed-network topology")
        p.add_argument("--alpha", type=float, default=15.0, help="reconfiguration cost alpha")
        p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument("--repetitions", type=int, default=1, help="repetitions to average")
        p.add_argument("--checkpoints", type=int, default=10, help="checkpoints to record")
        p.add_argument("--solver-backend", default=None,
                       help="static blossom kernel for SO-BMA: array (default) "
                            "or nx")
        add_stream_flags(p)
        add_store_flags(p)
        add_exec_flags(p)

    def add_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker count (default: the REPRO_WORKERS "
                            "environment variable, else 1)")
        p.add_argument("--backend", default=None,
                       choices=["serial", "pool", "queue"],
                       help="scheduler backend (default: serial for one "
                            "worker, pool otherwise)")
        p.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="work-queue directory for --backend queue "
                            "(temporary when omitted; point independent "
                            "`repro worker DIR` processes at it to help)")

    def add_stream_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--stream", action="store_true",
                       help="replay the workload as a lazy trace stream "
                            "(memory bounded by the chunk size; results are "
                            "bit-identical to materialized replay)")
        p.add_argument("--chunk-size", type=int, default=None, metavar="N",
                       help="requests per streamed segment (default 8192; "
                            "implies --stream)")

    def add_store_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", nargs="?", const=".repro-store", default=None,
                       metavar="DIR",
                       help="run-store directory: serve unchanged (spec, seed) runs "
                            "from disk and write new ones back (bare --store uses "
                            "./.repro-store; default: the REPRO_RUN_STORE "
                            "environment variable)")
        p.add_argument("--no-store", action="store_true",
                       help="force cold runs even if REPRO_RUN_STORE is set")

    p_run = sub.add_parser("run", help="execute an experiment described by a JSON spec file")
    p_run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    p_run.add_argument("--repeats", type=int, default=None,
                       help="override the spec's repeat count")
    p_run.add_argument("--seed", type=int, default=None, help="override the spec's base seed")
    p_run.add_argument("--progress", action="store_true",
                       help="print per-checkpoint progress (observer-based)")
    p_run.add_argument("--out", default=None,
                       help="write the spec, per-run results, and aggregate as JSON")
    add_stream_flags(p_run)
    add_store_flags(p_run)
    add_exec_flags(p_run)

    p_sim = sub.add_parser("simulate", help="run one algorithm on one workload")
    add_common(p_sim)
    p_sim.add_argument("--b", type=int, default=12, help="matching degree bound b")
    p_sim.add_argument("--algorithm", default="rbma", help="algorithm name (see `repro list`)")

    p_cmp = sub.add_parser("compare", help="run several algorithms on the same workload")
    add_common(p_cmp)
    p_cmp.add_argument("--b", type=int, default=12, help="matching degree bound b")
    p_cmp.add_argument("--algorithms", nargs="+",
                       default=["rbma", "bma", "so-bma", "oblivious"],
                       help="algorithm names to compare")
    p_cmp.add_argument("--plot", action="store_true", help="render an ASCII chart of the series")

    p_swp = sub.add_parser("sweep", help="cross-product sweep over algorithms, b, and alpha")
    add_common(p_swp)
    p_swp.add_argument("--b-values", type=int, nargs="+", default=[6, 12, 18],
                       help="degree bounds to sweep over")
    p_swp.add_argument("--alpha-values", type=float, nargs="+", default=None,
                       help="reconfiguration costs to sweep over (default: --alpha)")
    p_swp.add_argument("--algorithms", nargs="+", default=["rbma", "bma", "oblivious"],
                       help="algorithm names to sweep")

    p_gen = sub.add_parser("generate-trace", help="generate a workload and save it as CSV")
    p_gen.add_argument("--workload", default="facebook-database")
    p_gen.add_argument("--nodes", type=int, default=100)
    p_gen.add_argument("--requests", type=int, default=20_000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output CSV path")

    p_ana = sub.add_parser("analyze-trace", help="print structure statistics of a CSV trace")
    p_ana.add_argument("path", help="trace CSV written by generate-trace")
    add_stream_flags(p_ana)

    sub.add_parser("list", help="list available algorithms, workloads, topologies, "
                                "and paging policies")

    p_wrk = sub.add_parser("worker", help="drain tasks from a work-queue directory "
                                          "(see --backend queue)")
    p_wrk.add_argument("queue_dir", help="queue directory created by a "
                                         "--backend queue run")
    p_wrk.add_argument("--worker-id", default=None,
                       help="stable worker name (default: worker-<pid>)")
    p_wrk.add_argument("--poll-interval", type=float, default=None, metavar="SECONDS",
                       help="sleep between claim attempts when the queue is busy")
    p_wrk.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="exit after completing N tasks")
    p_wrk.add_argument("--keep-alive", action="store_true",
                       help="keep polling after the queue drains (until a stop "
                            "is requested) instead of exiting")

    p_runs = sub.add_parser("runs", help="inspect and maintain the persistent run store")
    p_runs.add_argument("--store", default=None, metavar="DIR",
                        help="run-store directory (default: the REPRO_RUN_STORE "
                             "environment variable)")
    runs_sub = p_runs.add_subparsers(dest="runs_command")
    r_list = runs_sub.add_parser("list", help="list stored runs, newest first")
    r_list.add_argument("--limit", type=int, default=20,
                        help="show at most this many entries (0 = all)")
    r_show = runs_sub.add_parser("show", help="show one stored run by fingerprint prefix")
    r_show.add_argument("fingerprint", help="full fingerprint or unique prefix")
    r_stats = runs_sub.add_parser(
        "stats", help="cross-run statistics: recomputation history and regression flags")
    r_stats.add_argument("--group", action="store_true",
                         help="group entries differing only in seed (cross-seed "
                              "error bars) instead of per-fingerprint history")
    r_gc = runs_sub.add_parser("gc", help="expire stored runs by age and/or count")
    r_gc.add_argument("--max-entries", type=int, default=None,
                      help="keep only the newest N entries")
    r_gc.add_argument("--max-age-days", type=float, default=None,
                      help="delete entries last written more than this many days ago")
    r_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be deleted without touching disk")
    r_exp = runs_sub.add_parser(
        "export", help="pack every stored run into a portable tarball")
    r_exp.add_argument("tarball", help="output .tar.gz path")
    r_imp = runs_sub.add_parser(
        "import", help="merge a tarball exported elsewhere into this store "
                       "(identical-or-error on fingerprint conflicts)")
    r_imp.add_argument("tarball", help="tarball written by `repro runs export`")

    p_doc = sub.add_parser(
        "doctor", help="audit a run store and/or a queue directory for crash "
                       "wreckage (stale tmp files, corrupt entries, orphaned "
                       "leases) and optionally repair it")
    p_doc.add_argument("--store", default=None, metavar="DIR",
                       help="run-store directory to audit (default: the "
                            "REPRO_RUN_STORE environment variable)")
    p_doc.add_argument("--queue", default=None, metavar="DIR",
                       help="work-queue directory to audit")
    p_doc.add_argument("--fix", action="store_true",
                       help="apply the safe repairs (reap stale tmp files, "
                            "quarantine corrupt entries, remove a legacy index, "
                            "drop orphaned leases, requeue expired claims)")
    p_doc.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON instead of text")
    return parser


def _streaming_args(args: argparse.Namespace):
    """The (streaming, chunk_size) pair from ``--stream``/``--chunk-size``.

    An explicit ``--chunk-size`` implies streaming.
    """
    chunk_size = getattr(args, "chunk_size", None)
    streaming = bool(getattr(args, "stream", False)) or chunk_size is not None
    return streaming, chunk_size


def _build_specs(args: argparse.Namespace, algorithms: Sequence[str]):
    streaming, chunk_size = _streaming_args(args)
    return [
        ExperimentSpec(
            algorithm={"name": algorithm, "b": args.b, "alpha": args.alpha,
                       "solver_backend": args.solver_backend},
            traffic={"name": args.workload,
                     "params": {"n_nodes": args.nodes, "n_requests": args.requests},
                     "streaming": streaming, "chunk_size": chunk_size},
            topology={"name": args.topology},
            simulation={"checkpoints": args.checkpoints},
        )
        for algorithm in algorithms
    ]


def _store_arg(args: argparse.Namespace):
    """The ``store=`` policy encoded by ``--store``/``--no-store``.

    ``--no-store`` wins (``False`` forces cold runs); an explicit ``--store
    DIR`` names the store; otherwise ``None`` defers to ``REPRO_RUN_STORE``.
    """
    if getattr(args, "no_store", False):
        return False
    return args.store


def _run_specs(args: argparse.Namespace, algorithms: Sequence[str]):
    runner = ExperimentRunner(repetitions=args.repetitions, base_seed=args.seed,
                              store=_store_arg(args))
    return runner.compare_on_shared_trace(
        _build_specs(args, algorithms),
        n_workers=args.workers,
        backend=args.backend,
        queue_dir=args.queue_dir,
    )


def _load_spec(path: str) -> ExperimentSpec:
    """Load a spec file, mapping every parse failure onto a one-line CLI error.

    ``ExperimentSpec.load_json`` raises :class:`ConfigurationError` for
    malformed JSON and unknown keys, but a spec whose *values* have the
    wrong shape (``"seed": "abc"``, an algorithm given as a bare string, a
    list where an object belongs) used to surface as a raw
    ``TypeError``/``ValueError`` traceback.  Wrap those into the library's
    error hierarchy so ``main`` prints its usual actionable one-liner and
    exits non-zero instead.
    """
    try:
        return ExperimentSpec.load_json(path)
    except (ReproError, OSError):
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ConfigurationError(
            f"spec file {path!r} does not describe a valid experiment "
            f"({type(exc).__name__}: {exc}); compare it against "
            "ExperimentSpec.to_json() output or docs in repro.experiments.specs"
        ) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.repeats is not None:
        spec = spec.with_seed(spec.seed, repeats=args.repeats)
    if args.seed is not None:
        spec = spec.with_seed(args.seed, repeats=spec.repeats)
    streaming, chunk_size = _streaming_args(args)
    if streaming:
        spec = spec.with_streaming(chunk_size=chunk_size)
    observers = (ProgressObserver(),) if args.progress else ()
    # None (resolved from a disabled/absent env default) must stay disabled
    # downstream, hence the False fallback.
    run_store = resolve_store(_store_arg(args))
    from .exec import resolve_backend_name, resolve_worker_count

    workers = resolve_worker_count(args.workers, fallback=1)
    if args.progress and resolve_backend_name(args.backend, workers) != "serial":
        print("note: --progress is unavailable off the serial backend "
              "(observers do not cross process boundaries)", file=sys.stderr)
    before = snapshot("store.")
    runs = run_specs_parallel(
        [spec.with_seed(seed) for seed in spec.repetition_seeds()],
        n_workers=workers,
        store=run_store if run_store is not None else False,
        backend=args.backend,
        queue_dir=args.queue_dir,
        observers=observers,
    )
    if run_store is not None:
        after = snapshot("store.")
        hits, misses = (after.get(k, 0) - before.get(k, 0) for k in ("store.hits", "store.misses"))
        print(f"store: {hits} hit(s), {misses} miss(es) at {run_store.root}")
    agg = aggregate_runs(runs)
    results = {spec.label: agg}
    print(format_series_table(results, metric="routing_cost", title=f"{spec.label}"))
    print()
    print(f"final routing cost:        {agg.routing_cost_mean:,.0f}")
    print(f"final execution time [s]:  {agg.elapsed_seconds_mean:.3f}")
    print(f"matched request share:     {agg.matched_fraction_mean:.1%}")
    if args.out:
        payload = {
            "spec": spec.to_dict(),
            "runs": [run.to_dict() for run in runs],
            "aggregate": agg.to_dict(),
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {len(runs)} run(s) to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    results = _run_specs(args, [args.algorithm])
    print(format_series_table(results, metric="routing_cost",
                              title=f"{args.algorithm} on {args.workload}"))
    result = next(iter(results.values()))
    print()
    print(f"final routing cost:        {result.routing_cost_mean:,.0f}")
    print(f"final execution time [s]:  {result.elapsed_seconds_mean:.3f}")
    print(f"matched request share:     {result.matched_fraction_mean:.1%}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = _run_specs(args, args.algorithms)
    oblivious_label = next((label for label in results if label.startswith("oblivious")), None)
    print(format_comparison_table(results, oblivious_label=oblivious_label))
    if args.plot:
        print()
        print(plot_results(results, metric="routing_cost",
                           title=f"routing cost on {args.workload}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = SweepConfig(
        b_values=tuple(args.b_values),
        alpha_values=tuple(args.alpha_values if args.alpha_values else [args.alpha]),
        algorithms=tuple(args.algorithms),
    )
    streaming, chunk_size = _streaming_args(args)
    results = run_sweep(
        sweep,
        workload=args.workload,
        workload_kwargs={"n_nodes": args.nodes, "n_requests": args.requests},
        topology=args.topology,
        repetitions=args.repetitions,
        base_seed=args.seed,
        checkpoints=args.checkpoints,
        n_workers=args.workers,
        solver_backend=args.solver_backend,
        store=_store_arg(args),
        streaming=streaming,
        chunk_size=chunk_size,
        backend=args.backend,
        queue_dir=args.queue_dir,
    )
    # Label collisions would silently drop rows: disambiguate by alpha when
    # more than one alpha value is swept.
    if len(sweep.alpha_values) > 1:
        by_label = {f"{r.algorithm} (b: {r.b}, alpha: {r.alpha:g})": r for r in results}
    else:
        by_label = {r.label: r for r in results}
    oblivious_label = next((label for label in by_label if label.startswith("oblivious")), None)
    print(format_comparison_table(by_label, oblivious_label=oblivious_label))
    return 0


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    trace = make_workload(args.workload, n_nodes=args.nodes, n_requests=args.requests,
                          seed=args.seed)
    save_trace_csv(trace, args.out)
    print(f"wrote {len(trace):,} requests over {trace.n_nodes} racks to {args.out}")
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    # Chunked read + incremental accumulator: memory stays bounded by the
    # chunk size whether or not --stream is given.
    trace = stream_trace_csv(args.path, chunk_size=args.chunk_size)
    stats = compute_trace_statistics(trace)
    print(f"trace {trace.name!r}: {stats.n_requests:,} requests, {stats.n_nodes} racks")
    for key, value in stats.to_dict().items():
        if key in ("n_requests", "n_nodes"):
            continue
        print(f"  {key:<26} {value:.4g}")
    return 0


def _require_store(args: argparse.Namespace):
    run_store = resolve_store(args.store)
    if run_store is None:
        raise ConfigurationError(
            "no run store configured (pass --store DIR or set REPRO_RUN_STORE)"
        )
    return run_store


def _cmd_runs_list(args: argparse.Namespace) -> int:
    store = _require_store(args)
    entries = store.list_runs()
    print(f"{len(entries)} stored run(s) at {store.root}")
    shown = entries if args.limit <= 0 else entries[: args.limit]
    if shown:
        print(f"{'fingerprint':<14} {'algorithm':<12} {'workload':<20} "
              f"{'b':>3} {'seed':>6} {'runs':>4} {'total cost':>14} written")
    for e in shown:
        seed = "-" if e.seed is None else e.seed
        print(f"{e.fingerprint[:12]:<14} {e.algorithm:<12} {e.workload:<20} "
              f"{e.b:>3} {seed:>6} {e.runs:>4} {e.total_cost:>14,.0f} {e.written_at}")
    if len(entries) > len(shown):
        print(f"... {len(entries) - len(shown)} more (raise --limit)")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    store = _require_store(args)
    matches = store.find(args.fingerprint)
    if not matches:
        raise ConfigurationError(
            f"no stored run matches fingerprint prefix {args.fingerprint!r}"
        )
    if len(matches) > 1:
        listing = ", ".join(m.fingerprint[:12] for m in matches)
        raise ConfigurationError(
            f"fingerprint prefix {args.fingerprint!r} is ambiguous "
            f"({len(matches)} matches: {listing})"
        )
    payload = store.get_payload(matches[0].fingerprint)
    assert payload is not None  # find() just read this entry file
    result = payload["result"]
    print(f"fingerprint:    {payload['fingerprint']}")
    print(f"written at:     {payload['written_at']} "
          f"(updated {payload['updated_at']}, repro {payload['repro_version']})")
    print(f"algorithm:      {result['algorithm']} (b: {result['b']}, "
          f"alpha: {result['alpha']:g})")
    print(f"workload:       {result['workload']} on {result['topology']} "
          f"({result['n_requests']:,} requests, seed {result.get('seed')})")
    total = float(result["total_routing_cost"]) + float(result["total_reconfiguration_cost"])
    print(f"total cost:     {total:,.0f} "
          f"(routing {float(result['total_routing_cost']):,.0f}, "
          f"reconfiguration {float(result['total_reconfiguration_cost']):,.0f})")
    print(f"wall time [s]:  {float(result['total_elapsed_seconds']):.3f}")
    history = payload.get("history") or []
    print(f"recomputations: {len(history)}")
    for row in history:
        print(f"  {row['written_at']}  wall {row['wall_seconds']:.3f}s  "
              f"cost {row['total_cost']:,.0f}")
    print("spec:")
    print(json.dumps(payload["spec"], indent=2, sort_keys=True))
    return 0


def _cmd_runs_stats(args: argparse.Namespace) -> int:
    store = _require_store(args)
    if args.group:
        groups = group_statistics(store)
        print(f"{len(groups)} configuration group(s) at {store.root}")
        for g in groups:
            print(f"{g.algorithm} on {g.workload} (b: {g.b}, alpha: {g.alpha:g}, "
                  f"{g.n_requests:,} requests) over {g.cost.n} seed(s):")
            print(f"  cost    mean {g.cost.mean:,.0f}  std {g.cost.std:,.0f}  "
                  f"CI [{g.cost.ci_low:,.0f}, {g.cost.ci_high:,.0f}]")
            print(f"  runtime mean {g.runtime.mean:.3f}s  std {g.runtime.std:.3f}s")
        return 0
    histories = store_statistics(store)
    print(f"{len(histories)} stored run(s) at {store.root}")
    for h in histories:
        flags = []
        if h.cost_regression:
            flags.append("COST DRIFT")
        if h.runtime_regression:
            flags.append("RUNTIME REGRESSION")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{h.fingerprint[:12]}  {h.algorithm} on {h.workload} (b: {h.b}, "
              f"seed {h.seed}): {h.n_runs} recomputation(s){suffix}")
        print(f"  runtime mean {h.runtime.mean:.3f}s  "
              f"CI [{h.runtime.ci_low:.3f}, {h.runtime.ci_high:.3f}]  "
              f"latest {h.latest_wall_seconds:.3f}s")
        print(f"  cost    {h.latest_total_cost:,.0f}")
    return 0


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    store = _require_store(args)
    deleted = store.gc(max_entries=args.max_entries, max_age_days=args.max_age_days,
                       dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {len(deleted)} entr{'y' if len(deleted) == 1 else 'ies'} "
          f"at {store.root}")
    for fingerprint in deleted:
        print(f"  {fingerprint}")
    return 0


def _cmd_runs_export(args: argparse.Namespace) -> int:
    from .store.transfer import export_store

    store = _require_store(args)
    summary = export_store(store, args.tarball)
    print(f"exported {summary['exported']} entr"
          f"{'y' if summary['exported'] == 1 else 'ies'} "
          f"from {store.root} to {summary['path']}")
    for name in summary["skipped"]:
        print(f"  skipped unreadable entry file {name}", file=sys.stderr)
    return 0


def _cmd_runs_import(args: argparse.Namespace) -> int:
    from .store.transfer import import_store

    store = _require_store(args)
    summary = import_store(store, args.tarball)
    print(f"imported {summary['imported']} new entr"
          f"{'y' if summary['imported'] == 1 else 'ies'} into {store.root} "
          f"({summary['merged']} histor"
          f"{'y' if summary['merged'] == 1 else 'ies'} merged, "
          f"{summary['unchanged']} unchanged)")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .exec import run_worker

    stats = run_worker(
        args.queue_dir,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_tasks=args.max_tasks,
        keep_alive=args.keep_alive,
    )
    print(f"worker {stats['worker']}: {stats['completed']} task(s) completed, "
          f"{stats['failed_attempts']} failed attempt(s)")
    anomalies = {k: v for k, v in stats.get("queue", {}).items() if v}
    if anomalies:
        listing = ", ".join(f"{k}: {v}" for k, v in sorted(anomalies.items()))
        print(f"  absorbed anomalies: {listing}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from .doctor import audit_queue, audit_store

    reports = []
    if args.store is not None or os.environ.get("REPRO_RUN_STORE"):
        reports.append(audit_store(_require_store(args), fix=args.fix))
    if args.queue is not None:
        from .exec.queue import WorkQueue

        reports.append(audit_queue(WorkQueue.open(args.queue), fix=args.fix))
    if not reports:
        raise ConfigurationError(
            "nothing to audit: pass --store DIR (or set REPRO_RUN_STORE) "
            "and/or --queue DIR"
        )
    if args.as_json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0 if all(r.clean() for r in reports) else 1
    clean = True
    for report in reports:
        print(f"{report.area} at {report.root}:")
        if not report.findings:
            print("  clean")
        for finding in report.findings:
            status = "fixed" if finding.fixed else (
                "fixable with --fix" if finding.fixable else "manual attention"
            )
            print(f"  [{finding.kind}] {finding.path}: {finding.detail} ({status})")
        for key, value in sorted(report.info.items()):
            if value:
                print(f"  {key}: {value}")
        clean = clean and report.clean()
    return 0 if clean else 1


_RUNS_COMMANDS = {
    "list": _cmd_runs_list,
    "show": _cmd_runs_show,
    "stats": _cmd_runs_stats,
    "gc": _cmd_runs_gc,
    "export": _cmd_runs_export,
    "import": _cmd_runs_import,
}


def _cmd_runs(args: argparse.Namespace) -> int:
    if args.runs_command is None:
        print("usage: repro runs [--store DIR] {list,show,stats,gc,export,import}")
        return 0
    return _RUNS_COMMANDS[args.runs_command](args)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("algorithms:      " + ", ".join(available_algorithms()))
    print("workloads:       " + ", ".join(available_workloads()))
    print("topologies:      " + ", ".join(available_topologies()))
    print("paging policies: " + ", ".join(available_paging_policies()))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "generate-trace": _cmd_generate_trace,
    "analyze-trace": _cmd_analyze_trace,
    "list": _cmd_list,
    "runs": _cmd_runs,
    "worker": _cmd_worker,
    "doctor": _cmd_doctor,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
