"""Behaviour under faults: the resilience and latency sweeps
(docs/FAULT_MODEL.md; docs/OBSERVABILITY.md, "Detection lineage &
latency").

Both sweeps run one faulted harness cell, :func:`run_resilience_cell`:
the standard accuracy harness
(:func:`~repro.eval.harness.run_accuracy_run`) with the cell's fault
plan, the per-hop ack/retransmit transport and the detectors' staleness
horizon enabled, and leader bearer repair when leaves crash.  A cell
records level-1 precision/recall against the same exact ground truth as
the accuracy experiments (truth is computed from the real streams, so
crashed sensors' missed outliers count against recall -- the honest
accounting), the network's message accounting, and the latency
roll-up of the always-on :class:`~repro.network.node.DetectionLog`:
flag count, event-time -> flag-time latency P50/P99/max in ticks (0
when a leaf flags its own arrival, positive when loss, retransmission
backoff or parking delayed the escalated report a parent flags on) and
words per flag.  ``repro trace`` runs the same cell with tracing on.

* The **resilience** grid (loss rate x crash fraction per algorithm)
  measures graceful degradation: recall easing down with the fault
  rate rather than cliffing to zero, and message overhead -- each
  cell's total sends (data + retransmissions + acks + handoffs)
  relative to the algorithm's fault-free cell.  Results go to
  ``BENCH_resilience.json``; :func:`check_degradation` asserts the
  no-cliff property and the per-kind conservation identity
  ``sent == delivered + dropped`` for every cell.
* The **latency** grid (loss rate x staleness horizon per algorithm)
  measures how stale a flag is when it finally lands.  Its cells run
  without tracing -- the sweep measures the detector network, not the
  observability layer.  Results go to ``BENCH_latency.json``;
  :func:`check_latency` asserts non-negative latencies, zero latency
  under zero loss, lossless cells that flag for every algorithm, and a
  non-empty sweep.

Everything is seeded, so a cell replays bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType

from repro._exceptions import ParameterError
from repro.eval.harness import ExperimentConfig, run_accuracy_run
from repro.eval.provenance import machine_info, run_metadata
from repro.eval.reporting import render_grid

__all__ = [
    "run_resilience_cell",
    "run_resilience_benchmark",
    "check_degradation",
    "format_table",
    "run_latency_benchmark",
    "check_latency",
    "format_latency_table",
]

#: Dataset per algorithm: the one whose ground truth exercises each
#: detector at benchmark scale (matching the accuracy-test suites).
_DATASETS = MappingProxyType({"d3": "synthetic", "mgdd": "plateau"})


def run_resilience_cell(*, algorithm: str, loss_rate: float,
                        crash_fraction: float = 0.0,
                        duplication_rate: float = 0.0,
                        n_leaves: int = 8, branching: int = 4,
                        window_size: int = 500, measure_ticks: int = 400,
                        truth_stride: int = 4,
                        staleness_horizon: "int | None" = None,
                        seed: int = 7,
                        obs: "bool | str" = False) -> "dict[str, object]":
    """One faulted harness cell of the resilience or latency grid.

    The reliable transport runs in *every* cell -- including the
    fault-free baseline, so overhead ratios isolate fault-induced
    retransmissions from the protocol's flat ack cost.  The staleness
    horizon defaults to half the window.  ``loss_rate`` must lie in
    [0, 1): a total partition delivers nothing to measure.  ``obs``
    attaches the :mod:`repro.obs` instrumentation (see
    :func:`~repro.eval.harness.run_accuracy_run`); the snapshot lands
    in the cell's ``network["obs"]``.
    """
    if algorithm not in _DATASETS:
        raise ParameterError(
            f"algorithm must be one of {sorted(_DATASETS)}, "
            f"got {algorithm!r}")
    if not 0.0 <= loss_rate < 1.0:
        raise ParameterError(
            f"loss_rate must lie in [0, 1), got {loss_rate!r}")
    if staleness_horizon is None:
        staleness_horizon = max(1, window_size // 2)
    config = ExperimentConfig(
        algorithm=algorithm, dataset=_DATASETS[algorithm],
        n_leaves=n_leaves, branching=branching, window_size=window_size,
        measure_ticks=measure_ticks, truth_stride=truth_stride, n_runs=1,
        seed=seed, loss_rate=loss_rate, crash_fraction=crash_fraction,
        duplication_rate=duplication_rate, reliable_transport=True,
        repair_leaders=crash_fraction > 0.0,
        staleness_horizon=staleness_horizon)
    result = run_accuracy_run(config, seed=seed, obs=obs)
    detections = result.network_stats["detections"]
    assert isinstance(detections, dict)
    return {
        "algorithm": algorithm,
        "loss_rate": loss_rate,
        "crash_fraction": crash_fraction,
        "duplication_rate": duplication_rate,
        "staleness_horizon": staleness_horizon,
        "precision": result.precision(1),
        "recall": result.recall(1),
        "n_true_outliers": result.n_true_outliers[1],
        "n_flags": int(detections["n_flags"]),
        "latency_p50": detections["p50"],
        "latency_p99": detections["p99"],
        "latency_max": detections["max"],
        "by_tier": detections["by_tier"],
        "words_per_detection": detections["words_per_detection"],
        "network": result.network_stats,
    }


def run_resilience_benchmark(*, algorithms: "tuple[str, ...]" = ("d3", "mgdd"),
                             loss_rates: "tuple[float, ...]" = (0.0, 0.1, 0.3),
                             crash_fractions: "tuple[float, ...]" = (0.0, 0.25),
                             n_leaves: int = 8, window_size: int = 500,
                             measure_ticks: int = 400,
                             seed: int = 7) -> "dict[str, object]":
    """Run the full fault grid; return the result document.

    Each cell's ``message_overhead`` is its sent-message total divided
    by the same algorithm's fault-free cell (loss 0, crash 0), which is
    always part of the grid.
    """
    cells: "list[dict[str, object]]" = []
    for algorithm in algorithms:
        for crash_fraction in sorted(set(crash_fractions) | {0.0}):
            for loss_rate in sorted(set(loss_rates) | {0.0}):
                cells.append(run_resilience_cell(
                    algorithm=algorithm, loss_rate=loss_rate,
                    crash_fraction=crash_fraction, n_leaves=n_leaves,
                    window_size=window_size, measure_ticks=measure_ticks,
                    seed=seed))
    for cell in cells:
        baseline = next(
            c for c in cells
            if c["algorithm"] == cell["algorithm"]
            and c["loss_rate"] == 0.0 and c["crash_fraction"] == 0.0)
        base_sent = baseline["network"]["messages_sent"]  # type: ignore[index]
        sent = cell["network"]["messages_sent"]           # type: ignore[index]
        cell["message_overhead"] = sent / base_sent if base_sent else 0.0
    return {
        "benchmark": "resilience",
        "machine": machine_info(),
        "meta": run_metadata(seed=seed),
        "grid": {
            "algorithms": list(algorithms),
            "loss_rates": sorted(set(loss_rates) | {0.0}),
            "crash_fractions": sorted(set(crash_fractions) | {0.0}),
            "n_leaves": n_leaves,
            "window_size": window_size,
            "measure_ticks": measure_ticks,
            "seed": seed,
        },
        "cells": cells,
    }


def check_degradation(results: "dict[str, object]") -> "list[str]":
    """Assert graceful degradation; return human-readable failures.

    Checks, per algorithm: (1) no recall cliff -- when the fault-free
    cell finds outliers, every faulted cell must still find *some*
    (recall > 0); (2) the conservation identity holds in every cell;
    (3) lossy cells actually exercised the transport (retransmissions
    observed).  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    baselines = {cell["algorithm"]: cell for cell in cells
                 if cell["loss_rate"] == 0.0
                 and cell["crash_fraction"] == 0.0}
    for cell in cells:
        label = (f"{cell['algorithm']} loss={cell['loss_rate']} "
                 f"crash={cell['crash_fraction']}")
        network = cell["network"]
        assert isinstance(network, dict)
        if network["conservation_failures"]:
            failures.append(
                f"{label}: sent != delivered + dropped for "
                f"{network['conservation_failures']}")
        baseline = baselines.get(cell["algorithm"])
        if baseline is not None and baseline["recall"] > 0.0 \
                and cell["recall"] == 0.0:
            failures.append(
                f"{label}: recall cliffed to zero "
                f"(fault-free recall {baseline['recall']:.2f})")
        if cell["loss_rate"] > 0.0 \
                and network["transport"]["retransmissions"] == 0:
            failures.append(
                f"{label}: lossy link but no retransmissions recorded")
    return failures


def format_table(results: "dict[str, object]") -> str:
    """Render the fault grid as an aligned text table."""
    rows = [("cell", "precision", "recall", "sent", "overhead", "retx")]
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        network = cell["network"]
        rows.append((
            f"{cell['algorithm']} loss={cell['loss_rate']} "
            f"crash={cell['crash_fraction']}",
            f"{cell['precision']:.2f}",
            f"{cell['recall']:.2f}",
            f"{network['messages_sent']:,}",
            f"{cell['message_overhead']:.2f}x",
            f"{network['transport']['retransmissions']:,}",
        ))
    return render_grid(rows)


def run_latency_benchmark(*, algorithms: "tuple[str, ...]" = ("d3", "mgdd"),
                          loss_rates: "tuple[float, ...]" = (0.0, 0.25),
                          staleness_horizons: "tuple[int, ...]" = (30, 90),
                          n_leaves: int = 9, branching: int = 3,
                          window_size: int = 120, measure_ticks: int = 360,
                          seed: int = 7) -> "dict[str, object]":
    """Run the loss x staleness grid; return the result document.

    Its cells score recall on every second tick (``truth_stride=2``),
    as the latency grid always has; the resilience grid uses every
    fourth.
    """
    cells = [
        run_resilience_cell(
            algorithm=algorithm, loss_rate=loss_rate,
            staleness_horizon=horizon, n_leaves=n_leaves,
            branching=branching, window_size=window_size,
            measure_ticks=measure_ticks, truth_stride=2, seed=seed)
        for algorithm in algorithms
        for loss_rate in sorted(set(loss_rates))
        for horizon in sorted(set(staleness_horizons))
    ]
    return {
        "benchmark": "latency",
        "machine": machine_info(),
        "meta": run_metadata(seed=seed),
        "grid": {
            "algorithms": list(algorithms),
            "loss_rates": sorted(set(loss_rates)),
            "staleness_horizons": sorted(set(staleness_horizons)),
            "n_leaves": n_leaves,
            "branching": branching,
            "window_size": window_size,
            "measure_ticks": measure_ticks,
            "seed": seed,
        },
        "cells": cells,
    }


def check_latency(results: "dict[str, object]") -> "list[str]":
    """Assert the latency contract; return human-readable failures.

    Checks: (1) every recorded latency statistic is **non-negative** --
    a flag cannot precede its reading; (2) a lossless cell has zero
    worst-case latency (nothing delays a report when nothing is lost);
    (3) each algorithm's lossless cells flag *something* -- otherwise
    its zero-delay contract holds vacuously; (4) the sweep flagged
    something overall -- an all-empty grid measures nothing.  Empty
    list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    total_flags = 0
    # algorithm -> flags over its lossless cells.
    lossless_flags: "dict[str, int]" = {}
    for cell in cells:
        label = (f"{cell['algorithm']} loss_rate={cell['loss_rate']} "
                 f"staleness={cell['staleness_horizon']}")
        n_flags = int(cell["n_flags"])  # type: ignore[arg-type]
        total_flags += n_flags
        if float(cell["loss_rate"]) == 0.0:  # type: ignore[arg-type]
            algorithm = str(cell["algorithm"])
            lossless_flags[algorithm] = \
                lossless_flags.get(algorithm, 0) + n_flags
        for key in ("latency_p50", "latency_p99", "latency_max"):
            value = cell[key]
            if value is not None and value < 0:  # type: ignore[operator]
                failures.append(
                    f"{label}: {key} is {value}, flags cannot precede "
                    f"their readings")
        worst = cell["latency_max"]
        if float(cell["loss_rate"]) == 0.0 \
                and worst is not None and worst != 0:  # type: ignore[arg-type]
            failures.append(
                f"{label}: lossless cell reports latency_max={worst}, "
                f"expected 0 (nothing delays a report without loss)")
    for algorithm, n_flags in lossless_flags.items():
        if n_flags == 0:
            failures.append(
                f"{algorithm}: no lossless cell flagged any detection; "
                f"its zero-delay contract measured nothing")
    if total_flags == 0:
        failures.append(
            "no cell flagged any detection; the sweep measured nothing")
    return failures


def format_latency_table(results: "dict[str, object]") -> str:
    """Render the latency grid as an aligned text table."""
    rows = [("cell", "flags", "p50", "p99", "max", "words/flag",
             "recall L1")]
    cells = results["cells"]
    assert isinstance(cells, list)

    def _num(value: object, spec: str = "") -> str:
        return "-" if value is None else format(value, spec)

    for cell in cells:
        rows.append((
            f"{cell['algorithm']} loss_rate={cell['loss_rate']} "
            f"staleness={cell['staleness_horizon']}",
            f"{cell['n_flags']}",
            _num(cell["latency_p50"]),
            _num(cell["latency_p99"]),
            _num(cell["latency_max"]),
            _num(cell["words_per_detection"], ".1f"),
            _num(cell["recall"], ".3f"),
        ))
    return render_grid(rows)
