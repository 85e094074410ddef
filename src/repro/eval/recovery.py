"""Recovery benchmark: crash-rate x checkpoint-cadence sweep over the
supervised engine (docs/FAULT_MODEL.md, "Crash recovery").

:mod:`repro.engine` promises that process-level crashes cost time, never
correctness: a :class:`~repro.engine.supervisor.SupervisedEngine` killed
and restored mid-stream must produce detections ``np.array_equal`` to an
uninterrupted run.  This module measures that promise on a grid of
(crash rate x checkpoint cadence) cells per algorithm:

* every cell runs the *same seeded workload twice* -- once on a bare
  :class:`~repro.engine.core.DetectorEngine` (the reference), once under
  supervision with deterministically drawn crash ticks -- and reports
  the **detection divergence** (count of differing cells, gated to be
  exactly zero);
* recovery cost is reported per cell: recovery-time P50/P99/max,
  replayed ticks (bounded by the checkpoint cadence), and the largest
  checkpoint artifact in bytes.

Results are written to ``BENCH_recovery.json``.  :func:`check_recovery`
asserts the zero-divergence property, that crashes actually fired, and
that replay stayed bounded by the cadence.  Everything is seeded, so a
cell replays bit for bit.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from types import MappingProxyType

import numpy as np

from repro._exceptions import ParameterError
from repro._rng import resolve_rng
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.engine.core import DetectorEngine
from repro.engine.supervisor import SupervisedEngine
from repro.eval.provenance import machine_info, run_metadata
from repro.eval.reporting import render_grid
from repro.network.faults import EngineCrash, FaultPlan

__all__ = [
    "run_recovery_cell",
    "run_recovery_benchmark",
    "check_recovery",
    "format_table",
]

#: Outlier definition per algorithm, scaled to the unit-variance
#: workload below (mirrors the accuracy suites' operating points).
_SPECS = MappingProxyType({
    "d3": DistanceOutlierSpec(radius=0.5, count_threshold=3),
    "mgdd": MDEFSpec(sampling_radius=1.0, counting_radius=0.25),
})


def _workload(n_ticks: int, n_streams: int,
              rng: np.random.Generator) -> np.ndarray:
    """A seeded unit-variance stream batch with injected spikes."""
    data = rng.normal(0.0, 1.0, size=(n_ticks, n_streams))
    n_spikes = max(1, n_ticks // 50)
    ticks = rng.choice(n_ticks, size=n_spikes, replace=False)
    streams = rng.integers(0, n_streams, size=n_spikes)
    signs = rng.choice((-1.0, 1.0), size=n_spikes)
    data[ticks, streams] = signs * 8.0
    return data


def _build_engine(algorithm: str, n_streams: int, *, window_size: int,
                  sample_size: int, seed: int) -> DetectorEngine:
    return DetectorEngine(
        n_streams, _SPECS[algorithm], window_size=window_size,
        sample_size=sample_size, rng=resolve_rng(None, seed))


def run_recovery_cell(*, algorithm: str, crash_rate: float,
                      checkpoint_every: int, n_streams: int = 4,
                      n_ticks: int = 400, window_size: int = 120,
                      sample_size: int = 50, batch_size: int = 64,
                      retain: int = 4, seed: int = 7,
                      state_dir: "str | Path | None" = None,
                      ) -> "dict[str, object]":
    """One (algorithm, crash rate, cadence) cell of the recovery grid.

    ``crash_rate`` is crashes per tick: ``round(crash_rate * n_ticks)``
    distinct crash ticks are drawn from a seeded generator, so the same
    seed yields the same kill schedule.  ``state_dir`` holds the
    journal and checkpoints (a temporary directory when omitted).
    """
    if algorithm not in _SPECS:
        raise ParameterError(
            f"algorithm must be one of {sorted(_SPECS)}, got {algorithm!r}")
    if not 0.0 <= crash_rate < 1.0:
        raise ParameterError(
            f"crash_rate must lie in [0, 1), got {crash_rate!r}")
    data = _workload(n_ticks, n_streams, resolve_rng(None, seed))
    n_crashes = int(round(crash_rate * n_ticks))
    crash_rng = resolve_rng(None, seed + 1)
    crash_ticks = sorted(
        int(t) for t in crash_rng.choice(
            np.arange(1, n_ticks), size=n_crashes, replace=False)
    ) if n_crashes else []
    plan = FaultPlan(engine_crashes=[EngineCrash(tick=t)
                                     for t in crash_ticks])

    reference = _build_engine(algorithm, n_streams, window_size=window_size,
                              sample_size=sample_size, seed=seed)
    expected = np.vstack([reference.ingest(data[i:i + batch_size])
                          for i in range(0, n_ticks, batch_size)])

    engine = _build_engine(algorithm, n_streams, window_size=window_size,
                           sample_size=sample_size, seed=seed)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(state_dir) if state_dir is not None else Path(scratch)
        supervised = SupervisedEngine(
            engine, root, checkpoint_every=checkpoint_every,
            retain=retain, fault_plan=plan)
        began = time.perf_counter()
        observed = np.vstack([supervised.ingest(data[i:i + batch_size])
                              for i in range(0, n_ticks, batch_size)])
        elapsed = time.perf_counter() - began
        supervised.close()
        recoveries = supervised.recoveries
        checkpoint_bytes = max(
            (p.stat().st_size
             for p in supervised.store.directory.iterdir()), default=0)
    recovery_times = [float(r["recovery_s"]) for r in recoveries]
    replayed = [int(r["replayed_ticks"]) for r in recoveries]
    return {
        "algorithm": algorithm,
        "crash_rate": crash_rate,
        "checkpoint_every": checkpoint_every,
        "n_crashes_scheduled": n_crashes,
        "n_recoveries": len(recoveries),
        "divergence": int(np.sum(expected != observed)),
        "recovery_p50_s": float(np.quantile(recovery_times, 0.5))
        if recovery_times else 0.0,
        "recovery_p99_s": float(np.quantile(recovery_times, 0.99))
        if recovery_times else 0.0,
        "recovery_max_s": max(recovery_times, default=0.0),
        "replayed_ticks": int(sum(replayed)),
        "max_replayed_ticks": max(replayed, default=0),
        "max_checkpoint_bytes": int(checkpoint_bytes),
        "supervised_elapsed_s": elapsed,
    }


def run_recovery_benchmark(*, algorithms: "tuple[str, ...]" = ("d3", "mgdd"),
                           crash_rates: "tuple[float, ...]" = (0.01, 0.05),
                           checkpoint_cadences: "tuple[int, ...]" = (32, 128),
                           n_streams: int = 4, n_ticks: int = 400,
                           window_size: int = 120, sample_size: int = 50,
                           seed: int = 7) -> "dict[str, object]":
    """Run the full crash-rate x cadence grid; return the result document."""
    cells = [
        run_recovery_cell(
            algorithm=algorithm, crash_rate=crash_rate,
            checkpoint_every=cadence, n_streams=n_streams,
            n_ticks=n_ticks, window_size=window_size,
            sample_size=sample_size, seed=seed)
        for algorithm in algorithms
        for crash_rate in sorted(set(crash_rates))
        for cadence in sorted(set(checkpoint_cadences))
    ]
    return {
        "benchmark": "recovery",
        "machine": machine_info(),
        "meta": run_metadata(seed=seed),
        "grid": {
            "algorithms": list(algorithms),
            "crash_rates": sorted(set(crash_rates)),
            "checkpoint_cadences": sorted(set(checkpoint_cadences)),
            "n_streams": n_streams,
            "n_ticks": n_ticks,
            "window_size": window_size,
            "sample_size": sample_size,
            "seed": seed,
        },
        "cells": cells,
    }


def check_recovery(results: "dict[str, object]") -> "list[str]":
    """Assert the recovery contract; return human-readable failures.

    Checks, per cell: (1) **zero detection divergence** -- crashes must
    never change what gets flagged; (2) scheduled crashes actually
    fired; (3) replay stayed bounded by the checkpoint cadence (the
    whole point of cadenced checkpoints).  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        label = (f"{cell['algorithm']} crash_rate={cell['crash_rate']} "
                 f"cadence={cell['checkpoint_every']}")
        if cell["divergence"] != 0:
            failures.append(
                f"{label}: {cell['divergence']} detection(s) diverged from "
                f"the uninterrupted run (must be exactly 0)")
        if cell["n_recoveries"] != cell["n_crashes_scheduled"]:
            failures.append(
                f"{label}: {cell['n_recoveries']} recoveries for "
                f"{cell['n_crashes_scheduled']} scheduled crash(es)")
        if cell["max_replayed_ticks"] >= cell["checkpoint_every"]:  # type: ignore[operator]
            failures.append(
                f"{label}: replayed {cell['max_replayed_ticks']} ticks in "
                f"one recovery, >= the cadence {cell['checkpoint_every']}")
    return failures


def format_table(results: "dict[str, object]") -> str:
    """Render the recovery grid as an aligned text table."""
    rows = [("cell", "crashes", "diverged", "p99 s", "replayed",
             "chk bytes")]
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        rows.append((
            f"{cell['algorithm']} crash_rate={cell['crash_rate']} "
            f"cadence={cell['checkpoint_every']}",
            f"{cell['n_recoveries']}",
            f"{cell['divergence']}",
            f"{cell['recovery_p99_s']:.4f}",
            f"{cell['replayed_ticks']}",
            f"{cell['max_checkpoint_bytes']:,}",
        ))
    return render_grid(rows)
