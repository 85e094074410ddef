"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``
    Regenerate the paper's tables and figures (all, or one by name) and
    print them; optionally export the series as CSV.
``detect``
    Run the online single-sensor detection loop over a CSV/whitespace
    file of readings (one value per line, normalised to [0, 1]) and
    print flagged lines.
``info``
    Print the package version and the experiment inventory.
``bench-resilience``
    Measure detection quality and message overhead under injected node
    crashes and link loss (docs/FAULT_MODEL.md) and write
    ``BENCH_resilience.json``.
``bench-recovery``
    Sweep the supervised engine over a crash-rate x checkpoint-cadence
    grid (docs/FAULT_MODEL.md, "Crash recovery"), gate on zero
    detection divergence vs the uninterrupted run, and write
    ``BENCH_recovery.json``.
``bench-latency``
    Sweep event-time -> flag-time detection latency over a loss-rate x
    staleness-horizon grid (docs/OBSERVABILITY.md, "Detection lineage &
    latency") and write ``BENCH_latency.json``.
``bench-fleet``
    Run the multiprocess fleet pilot (sharded supervised engines, spooled
    per-worker traces, coordinator escalation) over a workers x loss-rate
    grid, gate on zero detection divergence vs the single-process run and
    on global message conservation, and write ``BENCH_fleet.json``.
``merge-trace``
    Deterministically merge per-worker trace spools (files or a run
    directory) into one coherent JSONL trace; optionally validate every
    merged event and check the fleet-wide message-conservation identity.
``explain``
    Reconstruct one detection's full lineage -- decision inputs, model
    version, message hops, retransmits, latency -- from a JSONL trace
    produced by a ``REPRO_TRACE`` run or ``repro trace``; also reads a
    worker spool or a run directory of spools (merged on the fly), so
    lineages may span worker processes.
``trace``
    Run one traced experiment under :mod:`repro.obs`, stream the JSONL
    trace to a file, validate every event against the schema, and print
    the trace summary (docs/OBSERVABILITY.md).
``export-metrics``
    Run one monitored experiment (model-health checks on) and export
    the full metrics registry -- counters, gauges incl. per-node health
    scores, histograms -- as Prometheus text format or JSON lines.
    With ``--in`` (repeatable; snapshot files or a directory of
    ``*.metrics.json``), skip the run and export the *merged* snapshots
    instead -- the fleet-wide export path.
``top``
    Live view: run a simulation and render a periodically-refreshing
    per-node table (window fill, health score, drift, message
    counters).  With ``--trace``, replay a recorded trace -- plain
    JSONL, a worker spool, or a run directory of spools -- instead of
    running a simulation; merged traces add a per-node worker column.

``bench-*`` and ``trace`` additionally take ``--metrics-out PATH`` to
export their metrics as Prometheus text (``.prom``/``.txt``) or JSON
lines (``.jsonl``/``.json``).  Where a run's time goes is the speed
benchmark's layer ledger (``python -m bench run --trace 1`` then
``python -m bench layers``), not a subcommand here.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_EXHIBITS = ("figure5", "figure6", "figure7", "figure8", "figure9",
             "figure10", "figure11", "memory", "selectivity")


def _add_run_options(parser: argparse.ArgumentParser, *, seed: int,
                     json_out: "str | None") -> None:
    """The option group shared by every benchmark-style subcommand.

    All of them take a root seed and write a JSON artifact; wiring the
    two here keeps flag names and help text identical across
    ``bench-*`` and ``trace``.  ``--output`` stays as a back-compat
    alias for ``--json-out``.
    """
    group = parser.add_argument_group("run options")
    group.add_argument("--seed", type=int, default=seed,
                       help="root random seed")
    group.add_argument("--json-out", "--output", dest="json_out",
                       default=json_out, metavar="PATH",
                       help="where to write the JSON results"
                            + ("" if json_out is None
                               else f" (default: {json_out})"))
    group.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also export the run's metrics (Prometheus "
                            "text for .prom/.txt, JSON lines for "
                            ".jsonl/.json)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Online Outlier Detection in Sensor "
                    "Data Using Non-Parametric Models' (VLDB 2006)")
    commands = parser.add_subparsers(dest="command", required=True)

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the paper's tables and figures")
    reproduce.add_argument(
        "exhibit", nargs="?", default="all",
        choices=("all",) + _EXHIBITS,
        help="which exhibit to regenerate (default: all)")
    reproduce.add_argument(
        "--window", type=int, default=1_500,
        help="sliding-window size |W| for the accuracy sweeps")
    reproduce.add_argument(
        "--leaves", type=int, default=16, help="number of leaf sensors")
    reproduce.add_argument(
        "--runs", type=int, default=2, help="Monte-Carlo runs per config")
    reproduce.add_argument(
        "--seed", type=int, default=0, help="root random seed")

    detect = commands.add_parser(
        "detect", help="flag (D, r)-outliers in a file of readings")
    detect.add_argument("path", help="file with one [0, 1] reading per line")
    detect.add_argument("--window", type=int, default=2_000)
    detect.add_argument("--sample", type=int, default=100)
    detect.add_argument("--radius", type=float, default=0.01)
    detect.add_argument("--threshold", type=float, default=9.0)
    detect.add_argument("--seed", type=int, default=0)

    commands.add_parser("info", help="version and experiment inventory")

    resilience = commands.add_parser(
        "bench-resilience",
        help="measure detection quality under crashes and link loss")
    resilience.add_argument("--leaves", type=int, default=8,
                            help="leaf sensors in the deployment")
    resilience.add_argument("--window", type=int, default=500,
                            help="sliding-window size |W|")
    resilience.add_argument("--measure", type=int, default=400,
                            help="measured ticks after warm-up")
    resilience.add_argument("--loss-rates", type=float, nargs="+",
                            default=[0.0, 0.1, 0.3],
                            help="link loss probabilities to sweep")
    resilience.add_argument("--crash-fractions", type=float, nargs="+",
                            default=[0.0, 0.25],
                            help="leaf crash fractions to sweep")
    _add_run_options(resilience, seed=7, json_out="BENCH_resilience.json")

    recovery = commands.add_parser(
        "bench-recovery",
        help="sweep crash-rate x checkpoint-cadence over the supervised "
             "engine and gate on zero detection divergence")
    recovery.add_argument("--streams", type=int, default=4,
                          help="independent sensor streams per engine")
    recovery.add_argument("--ticks", type=int, default=400,
                          help="ticks per cell")
    recovery.add_argument("--window", type=int, default=120,
                          help="sliding-window size |W|")
    recovery.add_argument("--sample", type=int, default=50,
                          help="kernel sample slots |R|")
    recovery.add_argument("--crash-rates", type=float, nargs="+",
                          default=[0.01, 0.05],
                          help="crashes per tick to sweep")
    recovery.add_argument("--checkpoint-cadences", type=int, nargs="+",
                          default=[32, 128],
                          help="checkpoint cadences (ticks) to sweep")
    _add_run_options(recovery, seed=7, json_out="BENCH_recovery.json")

    latency = commands.add_parser(
        "bench-latency",
        help="sweep event-time -> flag-time detection latency over a "
             "loss-rate x staleness-horizon grid")
    latency.add_argument("--leaves", type=int, default=9,
                         help="leaf sensors in the deployment")
    latency.add_argument("--branching", type=int, default=3,
                         help="hierarchy branching factor")
    latency.add_argument("--window", type=int, default=120,
                         help="sliding-window size |W|")
    latency.add_argument("--measure", type=int, default=360,
                         help="measured ticks after warm-up")
    latency.add_argument("--loss-rates", type=float, nargs="+",
                         default=[0.0, 0.25],
                         help="link loss probabilities to sweep")
    latency.add_argument("--staleness-horizons", type=int, nargs="+",
                         default=[30, 90],
                         help="staleness horizons (ticks) to sweep")
    _add_run_options(latency, seed=7, json_out="BENCH_latency.json")

    fleet = commands.add_parser(
        "bench-fleet",
        help="run the multiprocess fleet pilot and gate on detection "
             "bit-identity and global message conservation")
    fleet.add_argument("--workers", type=int, nargs="+", default=[2, 4],
                       help="worker counts to sweep")
    fleet.add_argument("--loss-rates", type=float, nargs="+",
                       default=[0.0, 0.25],
                       help="flag-forwarding loss probabilities to sweep")
    fleet.add_argument("--streams", type=int, default=8,
                       help="total sensor streams partitioned across "
                            "workers")
    fleet.add_argument("--ticks", type=int, default=240,
                       help="ticks per cell")
    fleet.add_argument("--window", type=int, default=100,
                       help="sliding-window size |W|")
    fleet.add_argument("--sample", type=int, default=40,
                       help="kernel sample slots |R|")
    fleet.add_argument("--batch", type=int, default=32,
                       help="ticks per ingest batch")
    fleet.add_argument("--checkpoint-every", type=int, default=64,
                       help="checkpoint cadence (ticks)")
    fleet.add_argument("--run-dir", default=None, metavar="DIR",
                       help="keep per-cell spools and merged traces "
                            "under DIR (default: temporary)")
    fleet.add_argument("--in-process", dest="processes",
                       action="store_false",
                       help="run workers sequentially in-process instead "
                            "of spawning (fast; identical results)")
    _add_run_options(fleet, seed=7, json_out="BENCH_fleet.json")

    merge = commands.add_parser(
        "merge-trace",
        help="merge per-worker trace spools into one coherent JSONL "
             "trace")
    merge.add_argument("inputs", nargs="+", metavar="SPOOL|DIR",
                       help="worker spool files, or one run directory "
                            "of worker-*.spool.jsonl files")
    merge.add_argument("--out", default="TRACE_merged.jsonl",
                       metavar="PATH",
                       help="merged trace path "
                            "(default: TRACE_merged.jsonl)")
    merge.add_argument("--validate", action="store_true",
                       help="check every merged event against the trace "
                            "schema and exit non-zero on violations")

    explain = commands.add_parser(
        "explain",
        help="reconstruct one detection's lineage from a JSONL trace, "
             "worker spool, or run directory of spools")
    explain.add_argument("detection", nargs="?", default="last",
                         help="which detection: 'last', 'first', a 0-based "
                              "index, or NODE:TICK (flagging node and "
                              "reading tick; default: last)")
    explain.add_argument("--trace", required=True, metavar="PATH",
                         help="JSONL trace file, worker spool, or run "
                              "directory of spools to explain")
    explain.add_argument("--json", action="store_true",
                         help="emit the lineage record as JSON instead of "
                              "the human-readable rendering")

    trace = commands.add_parser(
        "trace", help="run one traced experiment and summarize its JSONL "
                      "trace")
    trace.add_argument("experiment", choices=("d3", "mgdd"),
                       help="which detector to trace")
    trace.add_argument("--leaves", type=int, default=8,
                       help="leaf sensors in the deployment")
    trace.add_argument("--window", type=int, default=200,
                       help="sliding-window size |W|")
    trace.add_argument("--measure", type=int, default=200,
                       help="measured ticks after warm-up")
    trace.add_argument("--loss-rate", type=float, default=0.1,
                       help="injected link loss probability")
    trace.add_argument("--crash-fraction", type=float, default=0.25,
                       help="fraction of leaves crashing mid-run")
    trace.add_argument("--trace-out", default=None, metavar="PATH",
                       help="JSONL trace file "
                            "(default: TRACE_<experiment>.jsonl)")
    _add_run_options(trace, seed=7, json_out=None)

    export = commands.add_parser(
        "export-metrics",
        help="run one health-monitored experiment and export the full "
             "metrics registry")
    export.add_argument("experiment", nargs="?", choices=("d3", "mgdd"),
                        default="d3", help="which detector to run")
    export.add_argument("--dataset", default="synthetic",
                        choices=("synthetic", "plateau", "drift"),
                        help="workload ('drift' injects a mid-stream "
                             "distribution shift)")
    export.add_argument("--leaves", type=int, default=8,
                        help="leaf sensors in the deployment")
    export.add_argument("--window", type=int, default=200,
                        help="sliding-window size |W|")
    export.add_argument("--measure", type=int, default=200,
                        help="measured ticks after warm-up")
    export.add_argument("--health-every", type=int, default=25,
                        help="ticks between model-health sweeps")
    export.add_argument("--in", dest="inputs", action="append",
                        default=None, metavar="PATH",
                        help="merge these metrics snapshots (files or a "
                             "directory of *.metrics.json) and export the "
                             "union instead of running an experiment; "
                             "repeatable")
    export.add_argument("--out", default="metrics.prom", metavar="PATH",
                        help="export path (default: metrics.prom)")
    export.add_argument("--format", default=None,
                        choices=("prom", "jsonl"),
                        help="export format (default: from path suffix)")
    export.add_argument("--seed", type=int, default=7,
                        help="root random seed")

    top = commands.add_parser(
        "top", help="live per-node view over a running simulation, or "
                    "a replay of a recorded trace")
    top.add_argument("--trace", default=None, metavar="PATH",
                     help="replay this trace (plain JSONL, worker spool, "
                          "or run directory of spools) instead of "
                          "running a simulation")
    top.add_argument("--leaves", type=int, default=8,
                     help="leaf sensors in the deployment")
    top.add_argument("--window", type=int, default=300,
                     help="sliding-window size |W|")
    top.add_argument("--ticks", type=int, default=600,
                     help="total ticks to simulate")
    top.add_argument("--refresh", type=int, default=50,
                     help="ticks between frames")
    top.add_argument("--interval", type=float, default=0.5,
                     help="seconds to sleep between frames (0 for "
                          "batch/CI use)")
    top.add_argument("--dataset", default="synthetic",
                     choices=("synthetic", "drift"),
                     help="workload ('drift' shifts the mean mid-run)")
    top.add_argument("--no-clear", dest="clear", action="store_false",
                     help="append frames instead of clearing the screen")
    top.add_argument("--seed", type=int, default=7,
                     help="root random seed")
    return parser


def _cmd_reproduce(args) -> int:
    from repro.eval import experiments

    def sweeps(fn):
        return fn(window_size=args.window, n_leaves=args.leaves,
                  n_runs=args.runs, seed=args.seed)

    runners = {
        "figure5": lambda: experiments.figure5(seed=args.seed),
        "figure6": lambda: experiments.figure6(seed=args.seed),
        "figure7": lambda: sweeps(experiments.figure7),
        "figure8": lambda: sweeps(experiments.figure8),
        "figure9": lambda: sweeps(experiments.figure9),
        "figure10": lambda: experiments.figure10(
            window_size=args.window, n_leaves=min(args.leaves, 15),
            n_runs=args.runs, seed=args.seed),
        "figure11": lambda: experiments.figure11(seed=args.seed),
        "memory": lambda: experiments.memory_experiment(seed=args.seed),
        "selectivity": lambda: experiments.selectivity_experiment(
            seed=args.seed),
    }
    selected = _EXHIBITS if args.exhibit == "all" else (args.exhibit,)
    for name in selected:
        print(runners[name]().format_table())
        print()
    return 0


def _cmd_detect(args) -> int:
    import numpy as np

    from repro.core.outliers import DistanceOutlierSpec
    from repro.detectors.single import OnlineOutlierDetector

    detector = OnlineOutlierDetector(
        args.window, args.sample,
        DistanceOutlierSpec(radius=args.radius,
                            count_threshold=args.threshold),
        rng=np.random.default_rng(args.seed))
    with open(args.path) as handle:
        for line_number, line in enumerate(handle):
            text = line.strip().split(",")[0]
            if not text:
                continue
            value = float(text)
            decision = detector.process(value)
            if decision is not None and decision.is_outlier:
                print(f"line {line_number}: {value:.4f} "
                      f"(estimated neighbours {decision.neighbor_count:.1f} "
                      f"< {args.threshold})")
    print(f"# flagged {detector.readings_flagged} reading(s)",
          file=sys.stderr)
    return 0


def _export_metrics_file(snapshot, path: str) -> None:
    """Write a metrics snapshot where ``--metrics-out`` points."""
    from repro.obs.export import write_metrics

    fmt = write_metrics(snapshot, path)
    print(f"# wrote {path} ({fmt})", file=sys.stderr)


def _finish_bench(args, results, format_table, check, label: str) -> int:
    """The tail every ``bench-*`` handler shares; returns the exit code.

    Prints the table, writes the JSON document, exports its numeric
    leaves when ``--metrics-out`` is given, then reports each ``check``
    failure as ``# <label> FAILURE: ...`` and exits 1 if there was one.
    """
    from repro.eval.provenance import write_results
    from repro.obs.metrics import MetricsRegistry

    print(format_table(results))
    path = write_results(results, args.json_out)
    print(f"# wrote {path}", file=sys.stderr)
    if args.metrics_out:
        registry = MetricsRegistry()
        registry.absorb_mapping(results, f"bench.{results['benchmark']}")
        _export_metrics_file(registry.snapshot(), args.metrics_out)
    failures = check(results)
    for failure in failures:
        print(f"# {label} FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bench_resilience(args) -> int:
    from repro.eval import resilience

    results = resilience.run_resilience_benchmark(
        loss_rates=tuple(args.loss_rates),
        crash_fractions=tuple(args.crash_fractions),
        n_leaves=args.leaves, window_size=args.window,
        measure_ticks=args.measure, seed=args.seed)
    return _finish_bench(args, results, resilience.format_table,
                         resilience.check_degradation, "DEGRADATION")


def _cmd_bench_recovery(args) -> int:
    from repro.eval import recovery

    results = recovery.run_recovery_benchmark(
        crash_rates=tuple(args.crash_rates),
        checkpoint_cadences=tuple(args.checkpoint_cadences),
        n_streams=args.streams, n_ticks=args.ticks,
        window_size=args.window, sample_size=args.sample, seed=args.seed)
    return _finish_bench(args, results, recovery.format_table,
                         recovery.check_recovery, "RECOVERY")


def _cmd_bench_latency(args) -> int:
    from repro.eval import resilience

    results = resilience.run_latency_benchmark(
        loss_rates=tuple(args.loss_rates),
        staleness_horizons=tuple(args.staleness_horizons),
        n_leaves=args.leaves, branching=args.branching,
        window_size=args.window, measure_ticks=args.measure,
        seed=args.seed)
    return _finish_bench(args, results, resilience.format_latency_table,
                         resilience.check_latency, "LATENCY")


def _cmd_bench_fleet(args) -> int:
    from repro.eval import fleet

    results = fleet.run_fleet_benchmark(
        workers=tuple(args.workers), loss_rates=tuple(args.loss_rates),
        n_streams=args.streams, n_ticks=args.ticks,
        window_size=args.window, sample_size=args.sample,
        batch_size=args.batch, checkpoint_every=args.checkpoint_every,
        seed=args.seed, use_processes=args.processes,
        run_dir=args.run_dir)
    return _finish_bench(args, results, fleet.format_table,
                         fleet.check_fleet, "FLEET")


def _cmd_merge_trace(args) -> int:
    from pathlib import Path

    from repro._exceptions import ParameterError, SnapshotError
    from repro.obs import distributed, schema

    try:
        if len(args.inputs) == 1 and Path(args.inputs[0]).is_dir():
            spools = distributed.load_spools(args.inputs[0])
        else:
            spools = [distributed.load_spool(path) for path in args.inputs]
        merged = distributed.merge_spools(spools)
    except (ParameterError, SnapshotError) as exc:
        print(f"repro merge-trace: {exc}", file=sys.stderr)
        return 2
    path = distributed.write_merged(merged.events, args.out)
    print(f"# merged {len(spools)} spool(s) "
          f"(workers {merged.worker_ids}) -> {path} "
          f"({len(merged.events)} events)", file=sys.stderr)
    failures = 0
    for worker_id, n_torn in sorted(merged.torn_by_worker.items()):
        if n_torn:
            print(f"# TORN SPOOL: worker {worker_id} lost {n_torn} "
                  "trailing line(s)", file=sys.stderr)
    if merged.n_ring_dropped:
        by_worker = {w: t for w, t
                     in merged.ring_dropped_by_worker.items() if t}
        print(f"# RING OVERFLOW: {merged.n_ring_dropped} event(s) "
              f"evicted from in-memory rings ({by_worker}); spool "
              "files are sink-complete", file=sys.stderr)
    if args.validate:
        problems = schema.validate_events(merged.events)
        for problem in problems[:50]:
            print(f"# SCHEMA VIOLATION: {problem}", file=sys.stderr)
        failures += len(problems)
    if merged.counter_totals is not None:
        conservation = distributed.conservation_failures(
            merged.events, merged.counter_totals)
        for failure in conservation:
            print(f"# CONSERVATION FAILURE: {failure}", file=sys.stderr)
        failures += len(conservation)
    else:
        print("# conservation not checked (not every spool has a "
              "counter-bearing footer)", file=sys.stderr)
    if not failures:
        checks = []
        if args.validate:
            checks.append("schema valid")
        if merged.counter_totals is not None:
            checks.append("conservation holds")
        if checks:
            print("# " + "; ".join(checks), file=sys.stderr)
    return 1 if failures else 0


def _cmd_explain(args) -> int:
    import json

    from repro.obs.distributed import load_trace
    from repro.obs.explain import (
        explain,
        explanation_dict,
        format_explanation,
    )

    record = explain(load_trace(args.trace), args.detection)
    if args.json:
        print(json.dumps(explanation_dict(record), sort_keys=True,
                         default=str))
    else:
        print(format_explanation(record))
    return 0 if record.complete else 1


def _cmd_trace(args) -> int:
    import json

    from repro.eval.resilience import run_resilience_cell
    from repro.obs import report, schema

    trace_out = args.trace_out or f"TRACE_{args.experiment}.jsonl"
    cell = run_resilience_cell(
        algorithm=args.experiment, loss_rate=args.loss_rate,
        crash_fraction=args.crash_fraction, n_leaves=args.leaves,
        window_size=args.window, measure_ticks=args.measure,
        seed=args.seed, obs=trace_out)
    network = cell["network"]
    assert isinstance(network, dict)
    obs_stats = network["obs"]

    events = report.load_events(trace_out)
    problems = schema.validate_events(events)
    for problem in problems[:20]:
        print(f"# SCHEMA VIOLATION: {problem}", file=sys.stderr)
    print(report.format_report(report.summarize(events)))
    print(f"# wrote {trace_out} ({len(events)} events)", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(obs_stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {args.json_out}", file=sys.stderr)
    if args.metrics_out:
        _export_metrics_file(obs_stats["metrics"], args.metrics_out)
    return 1 if problems else 0


def _cmd_export_metrics(args) -> int:
    from repro.eval.harness import ExperimentConfig, run_accuracy_run
    from repro.obs.export import write_metrics

    if args.inputs:
        from repro.obs.distributed import load_metrics_snapshots
        from repro.obs.metrics import merge_snapshots

        snapshots = load_metrics_snapshots(args.inputs)
        merged = merge_snapshots(snapshots)
        fmt = write_metrics(merged, args.out, args.format)
        print(f"# wrote {args.out} ({fmt})", file=sys.stderr)
        print(f"merged {len(snapshots)} snapshot(s): "
              f"{len(merged['counters'])} counter(s), "
              f"{len(merged['gauges'])} gauge(s), "
              f"{len(merged['histograms'])} histogram(s)")
        return 0

    dataset = args.dataset
    if args.experiment == "mgdd" and dataset == "synthetic":
        dataset = "plateau"   # the MGDD accuracy workload (see harness)
    config = ExperimentConfig(
        algorithm=args.experiment, dataset=dataset, n_leaves=args.leaves,
        window_size=args.window, measure_ticks=args.measure, n_runs=1,
        seed=args.seed, health_check_every=args.health_every)
    result = run_accuracy_run(config, seed=args.seed, obs=True)
    stats = result.network_stats["obs"]
    fmt = write_metrics(stats["metrics"], args.out, args.format)
    health = result.network_stats["health"]
    drift_events = stats["events_by_kind"].get("health.drift", 0)
    print(f"# wrote {args.out} ({fmt})", file=sys.stderr)
    print(f"health: {health['n_checks']} checks over {health['n_nodes']} "
          f"nodes, min score "
          f"{health['min_score'] if health['min_score'] is not None else 'n/a'}, "
          f"{drift_events} drift event(s)")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import replay_top, run_top

    if args.trace:
        summary = replay_top(
            args.trace, refresh_every=args.refresh,
            interval_s=args.interval, clear=args.clear)
        meta = summary["meta"]
        workers = meta.get("worker_ids") if isinstance(meta, dict) else None
        print(f"# {summary['frames']} frame(s), final tick "
              f"{summary['final_tick']}, {summary['n_events']} event(s)"
              + (f", workers {workers}" if workers else ""),
              file=sys.stderr)
        return 0
    summary = run_top(
        n_leaves=args.leaves, window_size=args.window, n_ticks=args.ticks,
        refresh_every=args.refresh, interval_s=args.interval,
        seed=args.seed, dataset=args.dataset, clear=args.clear)
    health = summary["health"]
    print(f"# {summary['frames']} frame(s), final tick "
          f"{summary['final_tick']}, min health score "
          f"{health['min_score'] if health['min_score'] is not None else 'n/a'}",
          file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    import repro
    print(f"repro {repro.__version__} -- reproduction of Subramaniam et "
          f"al., VLDB 2006")
    print("exhibits:", ", ".join(_EXHIBITS))
    print("see DESIGN.md for the system inventory and EXPERIMENTS.md for "
          "paper-vs-measured results")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro._exceptions.ParameterError` from a handler (an
    option value outside its domain, such as ``--window -5``) is reported
    the way argparse reports a bad option -- ``repro <cmd>: error: ...``
    on stderr and exit status 2 -- instead of as a traceback.
    """
    from repro._exceptions import ParameterError

    args = build_parser().parse_args(argv)
    handlers = {"reproduce": _cmd_reproduce, "detect": _cmd_detect,
                "info": _cmd_info,
                "bench-resilience": _cmd_bench_resilience,
                "bench-recovery": _cmd_bench_recovery,
                "bench-latency": _cmd_bench_latency,
                "bench-fleet": _cmd_bench_fleet,
                "merge-trace": _cmd_merge_trace,
                "explain": _cmd_explain,
                "trace": _cmd_trace,
                "export-metrics": _cmd_export_metrics, "top": _cmd_top}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":   # pragma: no cover - exercised via __main__
    raise SystemExit(main())
