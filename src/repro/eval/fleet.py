"""Multiprocess fleet pilot: sharded engines with a distributed telemetry plane.

The first cross-process correctness gate for the ROADMAP's scale-out
item.  A *fleet cell* partitions ``n_streams`` sensor streams
contiguously across 2-4 worker processes, each running a
:class:`~repro.engine.supervisor.SupervisedEngine` over its slice of
the same seeded workload, and proves three things at once:

* **Detection bit-identity** -- per-stream randomness comes from
  explicit ``stream_seeds`` (one seed per *global* stream), so the
  assembled worker detections must be ``np.array_equal`` to a
  single-process engine over all streams.  Sharding changes the
  process layout, never the detections.
* **Global conservation** -- each worker flag becomes an
  ``OutlierReport`` sent to a coordinator (worker id / node id 0) over
  a ``multiprocessing`` queue, with seeded loss injection on the way.
  Every send, deliver and drop is recorded in both the per-worker
  :class:`~repro.network.messages.MessageCounter` and (when traced)
  the worker's trace spool, and the merged trace must balance the
  summed counters exactly (:func:`repro.obs.distributed
  .conservation_failures`).
* **Cross-process lineage** -- the coordinator's level-1
  ``detector.flag`` events carry the reading id and ``model_seq`` from
  the originating worker, so ``repro explain`` on the merged trace
  renders lineages whose hops span >= 2 worker ids.

Workers spool their traces via :func:`repro.obs.distributed
.worker_trace_sink`; the cell merges the spools, validates the merged
trace against the event schema, and writes ``TRACE_merged.jsonl`` plus
per-worker ``*.metrics.json`` snapshots (mergeable via ``repro
export-metrics --in``) into the run directory.  ``repro bench-fleet``
sweeps a (workers x loss-rate) grid into ``BENCH_fleet.json`` and
:func:`check_fleet` gates it.
"""

from __future__ import annotations

import json
import queue as queue_module
import tempfile
import time
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro._artifacts import atomic_write_text
from repro._exceptions import ParameterError, RecoveryError
from repro._rng import resolve_rng
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.engine.core import DetectorEngine
from repro.engine.supervisor import SupervisedEngine
from repro.eval.provenance import machine_info, run_metadata
from repro.eval.reporting import render_grid
from repro.network.faults import EngineCrash, FaultPlan
from repro.network.messages import MessageCounter, OutlierReport
from repro.obs import schema
from repro.obs.distributed import (conservation_failures, counter_totals,
                                   load_spools, merge_spools,
                                   sum_counter_totals, worker_trace_sink,
                                   write_merged)
from repro.obs.lineage import reconstruct
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "run_fleet_cell",
    "run_fleet_benchmark",
    "check_fleet",
    "format_table",
    "fleet_workload",
    "stream_seeds",
    "partition_streams",
]

#: Default output location: the repository root.
DEFAULT_OUTPUT = "BENCH_fleet.json"

#: Node id of the coordinator (also its worker id / spool name).
COORDINATOR_NODE = 0

#: Merged-trace artifact name inside a run directory.
MERGED_TRACE_NAME = "TRACE_merged.jsonl"

#: Outlier definition per algorithm (the recovery bench's operating
#: points, reused so fleet figures are comparable).
_SPECS = MappingProxyType({
    "d3": DistanceOutlierSpec(radius=0.5, count_threshold=3),
    "mgdd": MDEFSpec(sampling_radius=1.0, counting_radius=0.25),
})


def fleet_workload(n_ticks: int, n_streams: int,
                   seed: int) -> np.ndarray:
    """The seeded unit-variance spiked workload, shared by all layouts.

    Every worker regenerates the *full* matrix from the seed and slices
    its own columns -- no arrays cross the process boundary, and the
    single-process reference consumes byte-identical readings.
    """
    rng = resolve_rng(None, seed)
    data = rng.normal(0.0, 1.0, size=(n_ticks, n_streams))
    n_spikes = max(1, n_ticks // 40)
    ticks = rng.choice(n_ticks, size=n_spikes, replace=False)
    streams = rng.integers(0, n_streams, size=n_spikes)
    signs = rng.choice((-1.0, 1.0), size=n_spikes)
    data[ticks, streams] = signs * 8.0
    return data


def stream_seeds(seed: int, n_streams: int) -> "list[int]":
    """One deterministic RNG seed per global stream.

    The partition-invariance hook: worker ``w`` passes its *slice* of
    this list as ``stream_seeds`` to its engine, the single-process
    reference passes the whole list, and stream ``s``'s detector draws
    the same substream either way.
    """
    rng = resolve_rng(None, seed + 101)
    return [int(s) for s in rng.integers(0, 2**62, size=n_streams)]


def partition_streams(n_streams: int,
                      n_workers: int) -> "list[tuple[int, int]]":
    """Contiguous near-equal ``[lo, hi)`` stream slices, one per worker."""
    if n_workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers > n_streams:
        raise ParameterError(
            f"n_workers ({n_workers}) must not exceed n_streams "
            f"({n_streams})")
    bounds = np.linspace(0, n_streams, n_workers + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_workers)]


# ----------------------------------------------------------------------
# worker process


def _fleet_worker(cfg: "dict[str, Any]", out_queue: "Any") -> None:
    """One fleet worker: shard engine + flag forwarding + spooled trace.

    Runs in a spawned child process (must stay module-level picklable)
    or in-process for the sequential test mode -- either way it only
    touches its own spool/metrics/detections files under the run dir
    and communicates flags upstream through ``out_queue``.
    """
    worker_id = int(cfg["worker_id"])
    lo, hi = int(cfg["lo"]), int(cfg["hi"])
    n_ticks = int(cfg["n_ticks"])
    run_dir = Path(cfg["run_dir"])
    data = fleet_workload(
        n_ticks, int(cfg["n_streams"]), int(cfg["seed"]))[:, lo:hi]
    seeds = stream_seeds(int(cfg["seed"]), int(cfg["n_streams"]))[lo:hi]
    engine = DetectorEngine(
        hi - lo, _SPECS[cfg["algorithm"]],
        window_size=int(cfg["window_size"]),
        sample_size=int(cfg["sample_size"]),
        stream_seeds=seeds)
    plan = FaultPlan(engine_crashes=[
        EngineCrash(tick=int(t)) for t in cfg["crash_ticks"]])
    supervised = SupervisedEngine(
        engine, run_dir / f"state-{worker_id:04d}",
        checkpoint_every=int(cfg["checkpoint_every"]), fault_plan=plan)
    counter = MessageCounter()
    loss_rate = float(cfg["loss_rate"])
    loss_rng = resolve_rng(None, int(cfg["seed"]) + 7919 * worker_id + 13)
    detections = np.zeros((n_ticks, hi - lo), dtype=bool)
    registry = MetricsRegistry()
    ingest_hist = registry.histogram("fleet.batch_ingest_s")

    def pump() -> None:
        batch = int(cfg["batch_size"])
        for i in range(0, n_ticks, batch):
            began = time.perf_counter()
            out = supervised.ingest(data[i:i + batch])
            ingest_hist.observe(time.perf_counter() - began)
            detections[i:i + out.shape[0]] = out
            for flag in supervised.flag_details:
                stream = int(flag["stream"])
                tick = int(flag["tick"])
                node = 1 + lo + stream  # leaf node ids start above the
                value = float(data[tick, stream])  # coordinator's 0
                if obs.ACTIVE:
                    obs.emit(
                        "detector.flag", node=node, level=0, origin=node,
                        tick=tick, prob=float(flag["score"]),
                        threshold=float(flag["threshold"]),
                        model_seq=int(flag["model_seq"]),
                        reading_tick=tick, flag_tick=tick, latency=0)
                report = OutlierReport(
                    value=np.array([value]), origin=node,
                    flagged_level=0, tick=tick)
                counter.record(report)
                if obs.ACTIVE:
                    obs.emit(
                        "message.send", kind="OutlierReport", sender=node,
                        dest=COORDINATOR_NODE, words=report.size_words(),
                        origin=node, reading_tick=tick, tick=tick)
                # Loss is drawn unconditionally so traced and untraced
                # runs make identical drop decisions.
                lost = loss_rng.random() < loss_rate
                if lost:
                    counter.record_dropped(report)
                    if obs.ACTIVE:
                        obs.emit(
                            "message.drop", kind="OutlierReport",
                            reason="fleet-loss", origin=node,
                            reading_tick=tick, tick=tick)
                else:
                    out_queue.put(("flag", {
                        "worker_id": worker_id, "origin": node,
                        "reading_tick": tick, "value": value,
                        "score": float(flag["score"]),
                        "threshold": float(flag["threshold"]),
                        "model_seq": int(flag["model_seq"])}))

    def spanned_pump() -> None:
        # Inside worker_trace_sink tracing is active, so the run span
        # is taken; the guard keeps the untraced path span-free.
        if obs.ACTIVE:
            with obs.span("run", worker=worker_id):
                pump()
        else:
            pump()

    began_run = time.perf_counter()
    if cfg["trace"]:
        with worker_trace_sink(run_dir, worker_id, counter=counter):
            spanned_pump()
    else:
        pump()
    elapsed = time.perf_counter() - began_run
    supervised.close()
    np.save(run_dir / f"worker-{worker_id:04d}.detections.npy", detections)
    registry.counter("fleet.flags").inc(int(detections.sum()))
    registry.counter("fleet.readings").inc(n_ticks * (hi - lo))
    registry.gauge("fleet.progress.tick").set(
        float(supervised.tick), tick=supervised.tick)
    registry.gauge(f"fleet.worker.{worker_id}.elapsed_s").set(elapsed)
    registry.absorb_message_counter(counter)
    doc = {
        "worker_id": worker_id, "lo": lo, "hi": hi,
        "elapsed_s": elapsed,
        "n_recoveries": len(supervised.recoveries),
        "counter": counter_totals(counter),
        "metrics": registry.snapshot(),
    }
    atomic_write_text(
        run_dir / f"worker-{worker_id:04d}.metrics.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    out_queue.put(("eof", {
        "worker_id": worker_id,
        "counter": counter_totals(counter),
        "n_recoveries": len(supervised.recoveries),
        "elapsed_s": elapsed}))


# ----------------------------------------------------------------------
# coordinator (parent process)


def _run_coordinator(run_dir: Path, in_queue: "Any", n_workers: int, *,
                     n_ticks: int, trace: bool, timeout_s: float,
                     ) -> "tuple[list[dict[str, Any]], dict[int, dict[str, Any]]]":
    """Drain worker flags until every worker's EOF; emit level-1 flags.

    Returns the delivered flag payloads and the per-worker EOF info
    (counters, recovery counts).  The coordinator is worker 0 of the
    fleet: it records deliveries in its own MessageCounter and, when
    traced, writes its own spool with ``message.deliver`` + level-1
    ``detector.flag`` events carrying the originating reading id and
    ``model_seq`` -- the cross-process lineage hop.

    The coordinator runs its own *drain clock*: delivery ``k`` happens
    at tick ``n_ticks + 1 + k``, strictly after every tick a worker can
    emit (workers never exceed ``n_ticks``, the final checkpoint
    boundary).  This is both honest -- the pilot's coordinator is a
    separate process consuming a queue, not a lock-stepped simulator
    node -- and what keeps the merged trace causal: the merge orders
    events by per-worker high-water tick, and workers emit mid-batch
    events from the *future* of the batch (``engine.checkpoint`` /
    ``engine.restore`` at the slice boundary) before the flags of
    earlier ticks in that batch, so any coordinator clock interleaved
    *within* the stream could sort a delivery before its send.  A drain
    clock past end-of-stream makes send-before-deliver structural, which
    is what the lineage seq horizon needs to pick up both hops.
    """
    counter = MessageCounter()
    delivered: "list[dict[str, Any]]" = []
    eof_info: "dict[int, dict[str, Any]]" = {}

    def drain() -> None:
        eofs = 0
        while eofs < n_workers:
            try:
                kind, payload = in_queue.get(timeout=timeout_s)
            except queue_module.Empty:
                raise RecoveryError(
                    f"fleet coordinator timed out after {timeout_s:.0f}s "
                    f"waiting for workers ({eofs}/{n_workers} EOFs seen)"
                ) from None
            if kind == "eof":
                eofs += 1
                eof_info[int(payload["worker_id"])] = payload
                continue
            origin = int(payload["origin"])
            reading_tick = int(payload["reading_tick"])
            drain_tick = n_ticks + 1 + len(delivered)
            report = OutlierReport(
                value=np.array([float(payload["value"])]), origin=origin,
                flagged_level=0, tick=reading_tick)
            counter.record_delivered(report)
            delivered.append(payload)
            if obs.ACTIVE:
                obs.emit(
                    "message.deliver", kind="OutlierReport",
                    dest=COORDINATOR_NODE, origin=origin,
                    reading_tick=reading_tick, tick=drain_tick)
                obs.emit(
                    "detector.flag", node=COORDINATOR_NODE, level=1,
                    origin=origin, tick=reading_tick,
                    prob=float(payload["score"]),
                    threshold=float(payload["threshold"]),
                    model_seq=int(payload["model_seq"]),
                    reading_tick=reading_tick,
                    flag_tick=drain_tick,
                    latency=drain_tick - reading_tick)

    def spanned_drain() -> None:
        if obs.ACTIVE:
            with obs.span("run", worker=COORDINATOR_NODE):
                drain()
        else:
            drain()

    if trace:
        with worker_trace_sink(run_dir, COORDINATOR_NODE, counter=counter):
            spanned_drain()
    else:
        drain()
    registry = MetricsRegistry()
    registry.counter("fleet.flags.level1").inc(len(delivered))
    registry.absorb_message_counter(counter)
    doc = {
        "worker_id": COORDINATOR_NODE,
        "counter": counter_totals(counter),
        "metrics": registry.snapshot(),
    }
    atomic_write_text(
        run_dir / f"worker-{COORDINATOR_NODE:04d}.metrics.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    eof_info[COORDINATOR_NODE] = {
        "worker_id": COORDINATOR_NODE,
        "counter": counter_totals(counter),
        "n_recoveries": 0, "elapsed_s": 0.0}
    return delivered, eof_info


# ----------------------------------------------------------------------
# one fleet cell


def run_fleet_cell(*, algorithm: str = "d3", n_workers: int = 2,
                   n_streams: int = 8, n_ticks: int = 240,
                   window_size: int = 100, sample_size: int = 40,
                   batch_size: int = 32, checkpoint_every: int = 64,
                   loss_rate: float = 0.0,
                   crash_ticks: "Sequence[int]" = (),
                   seed: int = 7, trace: bool = True,
                   use_processes: bool = True,
                   run_dir: "str | Path | None" = None,
                   timeout_s: float = 180.0) -> "dict[str, object]":
    """One fleet pilot cell: shard, run, merge, and check everything.

    ``use_processes=False`` runs the workers sequentially in-process
    (identical results -- the workers are deterministic and fully
    isolated through the run dir and queue -- but no spawn overhead),
    which is what most tests use; the benchmark and CI pilot use real
    ``multiprocessing`` spawn workers.
    """
    if algorithm not in _SPECS:
        raise ParameterError(
            f"algorithm must be one of {sorted(_SPECS)}, got {algorithm!r}")
    if not 0.0 <= loss_rate < 1.0:
        raise ParameterError(
            f"loss_rate must lie in [0, 1), got {loss_rate!r}")
    partitions = partition_streams(n_streams, n_workers)
    for t in crash_ticks:
        if not 0 < int(t) < n_ticks:
            raise ParameterError(
                f"crash_ticks must lie in (0, {n_ticks}), got {t!r}")

    # Single-process reference over all streams (same per-stream seeds).
    seeds = stream_seeds(seed, n_streams)
    data = fleet_workload(n_ticks, n_streams, seed)
    reference = DetectorEngine(
        n_streams, _SPECS[algorithm], window_size=window_size,
        sample_size=sample_size, stream_seeds=seeds)
    began_single = time.perf_counter()
    expected = np.vstack([reference.ingest(data[i:i + batch_size])
                          for i in range(0, n_ticks, batch_size)])
    single_elapsed = time.perf_counter() - began_single

    with tempfile.TemporaryDirectory() as scratch:
        run = Path(run_dir) if run_dir is not None else Path(scratch)
        run.mkdir(parents=True, exist_ok=True)
        worker_cfgs = [
            {
                "worker_id": w + 1, "lo": lo, "hi": hi,
                "n_streams": n_streams, "n_ticks": n_ticks,
                "window_size": window_size, "sample_size": sample_size,
                "batch_size": batch_size,
                "checkpoint_every": checkpoint_every,
                "algorithm": algorithm, "loss_rate": loss_rate,
                "crash_ticks": [int(t) for t in crash_ticks],
                "seed": seed, "trace": trace, "run_dir": str(run),
            }
            for w, (lo, hi) in enumerate(partitions)]

        began_fleet = time.perf_counter()
        if use_processes:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            mp_queue = ctx.Queue()
            procs = [ctx.Process(target=_fleet_worker,
                                 args=(cfg, mp_queue), daemon=True)
                     for cfg in worker_cfgs]
            for proc in procs:
                proc.start()
            try:
                delivered, eof_info = _run_coordinator(
                    run, mp_queue, len(procs), n_ticks=n_ticks,
                    trace=trace, timeout_s=timeout_s)
            finally:
                for proc in procs:
                    proc.join(timeout=timeout_s)
                    if proc.is_alive():
                        proc.terminate()
            bad = [cfg["worker_id"]
                   for cfg, proc in zip(worker_cfgs, procs)
                   if proc.exitcode != 0]
            if bad:
                raise RecoveryError(
                    f"fleet worker(s) {bad} exited non-zero")
        else:
            local_queue: "queue_module.Queue[Any]" = queue_module.Queue()
            for cfg in worker_cfgs:
                _fleet_worker(cfg, local_queue)
            delivered, eof_info = _run_coordinator(
                run, local_queue, len(worker_cfgs), n_ticks=n_ticks,
                trace=trace, timeout_s=1.0)
        fleet_elapsed = time.perf_counter() - began_fleet

        observed = np.hstack([
            np.load(run / f"worker-{cfg['worker_id']:04d}.detections.npy")
            for cfg in worker_cfgs])
        totals = sum_counter_totals(
            [info["counter"] for info in eof_info.values()])
        n_recoveries = sum(int(info.get("n_recoveries", 0))
                           for info in eof_info.values())

        cell: "dict[str, object]" = {
            "algorithm": algorithm,
            "n_workers": n_workers,
            "n_streams": n_streams,
            "n_ticks": n_ticks,
            "loss_rate": loss_rate,
            "n_crashes_scheduled": len(crash_ticks) * n_workers,
            "n_recoveries": n_recoveries,
            "divergence": int(np.sum(expected != observed)),
            "n_flags": int(observed.sum()),
            "n_sent": int(totals["counts"].get("OutlierReport", 0)),
            "n_delivered": int(
                totals["delivered"].get("OutlierReport", 0)),
            "n_dropped": int(totals["dropped"].get("OutlierReport", 0)),
            "n_level1_flags": len(delivered),
            "trace": trace,
            "use_processes": use_processes,
            "fleet_elapsed_s": fleet_elapsed,
            "single_elapsed_s": single_elapsed,
            "readings_per_sec": (n_ticks * n_streams) / fleet_elapsed
            if fleet_elapsed > 0 else 0.0,
        }

        if trace:
            merged = merge_spools(load_spools(run))
            write_merged(merged.events, run / MERGED_TRACE_NAME)
            problems = schema.validate_events(merged.events)
            assert merged.counter_totals is not None
            conservation = conservation_failures(
                merged.events, merged.counter_totals)
            records = reconstruct(merged.events)
            level1 = [r for r in records if r.level == 1]
            cross = [r for r in level1 if len({
                hop.get("worker_id") for hop in r.hops
                if hop.get("worker_id") is not None}) >= 2]
            cell.update({
                "merged_events": len(merged.events),
                "schema_problems": len(problems),
                "conservation_failures": conservation,
                "ring_dropped": merged.n_ring_dropped,
                "torn_spools": sum(
                    1 for n in merged.torn_by_worker.values() if n),
                "n_lineage_records": len(records),
                "n_level1_records": len(level1),
                "n_level1_complete": sum(
                    1 for r in level1 if r.complete),
                "n_cross_worker": len(cross),
            })
    return cell


# ----------------------------------------------------------------------
# benchmark grid


def run_fleet_benchmark(*, algorithm: str = "d3",
                        workers: "tuple[int, ...]" = (2, 4),
                        loss_rates: "tuple[float, ...]" = (0.0, 0.25),
                        n_streams: int = 8, n_ticks: int = 240,
                        window_size: int = 100, sample_size: int = 40,
                        batch_size: int = 32, checkpoint_every: int = 64,
                        seed: int = 7, use_processes: bool = True,
                        run_dir: "str | Path | None" = None,
                        ) -> "dict[str, object]":
    """Run the (workers x loss-rate) fleet grid; return the document.

    Lossy cells also schedule one mid-run engine crash per worker, so
    every faulted cell exercises recovery + telemetry together.  When
    ``run_dir`` is given, each cell keeps its spools and merged trace
    under ``<run_dir>/cell-<i>``.
    """
    cells = []
    grid = [(w, loss)
            for w in sorted(set(workers))
            for loss in sorted(set(loss_rates))]
    for i, (n_workers, loss_rate) in enumerate(grid):
        cell_dir = None if run_dir is None \
            else Path(run_dir) / f"cell-{i}"
        cells.append(run_fleet_cell(
            algorithm=algorithm, n_workers=n_workers,
            n_streams=n_streams, n_ticks=n_ticks,
            window_size=window_size, sample_size=sample_size,
            batch_size=batch_size, checkpoint_every=checkpoint_every,
            loss_rate=loss_rate,
            crash_ticks=(n_ticks // 2,) if loss_rate > 0 else (),
            seed=seed, trace=True, use_processes=use_processes,
            run_dir=cell_dir))
    return {
        "benchmark": "fleet",
        "machine": machine_info(),
        "meta": run_metadata(seed=seed),
        "grid": {
            "algorithm": algorithm,
            "workers": sorted(set(workers)),
            "loss_rates": sorted(set(loss_rates)),
            "n_streams": n_streams,
            "n_ticks": n_ticks,
            "window_size": window_size,
            "sample_size": sample_size,
            "batch_size": batch_size,
            "checkpoint_every": checkpoint_every,
            "seed": seed,
            "use_processes": use_processes,
        },
        "cells": cells,
    }


def check_fleet(results: "Mapping[str, object]") -> "list[str]":
    """Assert the fleet contract; return human-readable failures.

    Per cell: (1) zero detection divergence vs the single-process run;
    (2) the merged trace validates and balances the summed counters
    exactly; (3) every level-1 lineage record is complete and at least
    one spans >= 2 worker ids; (4) the cell actually flagged something.
    Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        label = (f"workers={cell['n_workers']} "
                 f"loss={cell['loss_rate']}")
        if cell["divergence"] != 0:
            failures.append(
                f"{label}: {cell['divergence']} detection(s) diverged "
                "from the single-process run (must be exactly 0)")
        if cell["n_flags"] == 0:
            failures.append(f"{label}: the cell flagged nothing")
        if cell["n_sent"] != cell["n_delivered"] + cell["n_dropped"]:  # type: ignore[operator]
            failures.append(
                f"{label}: sent {cell['n_sent']} != delivered "
                f"{cell['n_delivered']} + dropped {cell['n_dropped']}")
        if cell.get("n_crashes_scheduled", 0) != cell.get(
                "n_recoveries", 0):
            failures.append(
                f"{label}: {cell['n_recoveries']} recoveries for "
                f"{cell['n_crashes_scheduled']} scheduled crash(es)")
        if not cell.get("trace"):
            continue
        conservation = cell.get("conservation_failures")
        if conservation:
            failures.append(
                f"{label}: global conservation violated: {conservation}")
        if cell.get("schema_problems", 0) != 0:
            failures.append(
                f"{label}: merged trace has {cell['schema_problems']} "
                "schema problem(s)")
        if cell.get("n_level1_records", 0) != cell.get(
                "n_level1_complete", 0):
            failures.append(
                f"{label}: {cell['n_level1_records']} level-1 lineage "
                f"record(s) but only {cell['n_level1_complete']} complete")
        if cell.get("n_level1_records", 0) > 0 \
                and cell.get("n_cross_worker", 0) == 0:
            failures.append(
                f"{label}: no lineage record spans >= 2 worker ids")
        if cell.get("torn_spools", 0) != 0:
            failures.append(
                f"{label}: {cell['torn_spools']} spool(s) had torn tails")
    return failures


def format_table(results: "Mapping[str, object]") -> str:
    """Render the fleet grid as an aligned text table."""
    rows = [("cell", "flags", "diverged", "sent", "dlvr", "drop",
             "xworker", "rd/s")]
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        rows.append((
            f"workers={cell['n_workers']} loss={cell['loss_rate']}",
            f"{cell['n_flags']}",
            f"{cell['divergence']}",
            f"{cell['n_sent']}",
            f"{cell['n_delivered']}",
            f"{cell['n_dropped']}",
            f"{cell.get('n_cross_worker', '-')}",
            f"{cell['readings_per_sec']:,.0f}",
        ))
    return render_grid(rows)
