"""Latency benchmark: loss-rate x staleness-horizon sweep of the
event-time -> flag-time delay (docs/OBSERVABILITY.md, "Detection
lineage & latency").

The lineage layer (PR 9) defines a detection's **latency** as the tick
delta between the reading that triggered it (``Detection.tick``) and
the tick the flagging node made the decision -- 0 when a leaf flags its
own arrival, positive when loss, retransmission backoff or parking
delayed the escalated report a parent flags on.  This module sweeps a
(loss rate x staleness horizon) grid per algorithm over the accuracy
harness and records, per cell: flag count, latency P50/P99/max,
communication cost per detection (words / flag) and level-1 recall, so
CI can gate "how stale is a flag when it finally lands".

The latency bookkeeping in
:class:`~repro.network.node.DetectionLog` is unconditional, so cells
run *without* tracing -- the benchmark measures the detector network,
not the observability layer.  Results go to ``BENCH_latency.json``;
:func:`check_latency` asserts the invariants (non-negative latencies,
zero latency under zero loss, a non-empty sweep).  Everything is
seeded, so a cell replays bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType

from repro._exceptions import ParameterError
from repro.eval.harness import ExperimentConfig, run_accuracy_run
from repro.eval.provenance import machine_info, run_metadata
from repro.eval.reporting import render_grid

__all__ = [
    "run_latency_cell",
    "run_latency_benchmark",
    "check_latency",
    "format_table",
]

#: Default output location: the repository root.
DEFAULT_OUTPUT = "BENCH_latency.json"

#: Dataset per algorithm, mirroring the conservation-suite operating
#: points (MGDD needs the plateau workload to flag at all at this scale).
_DATASETS = MappingProxyType({"d3": "synthetic", "mgdd": "plateau"})


def run_latency_cell(*, algorithm: str, loss_rate: float,
                     staleness_horizon: int, n_leaves: int = 9,
                     branching: int = 3, window_size: int = 120,
                     measure_ticks: int = 120, seed: int = 7,
                     ) -> "dict[str, object]":
    """One (algorithm, loss rate, staleness horizon) cell of the grid.

    Runs the accuracy harness once under the reliable transport (the
    paper-honest regime where a lost report is retransmitted rather
    than silently gone -- the regime where latency is non-trivial) and
    reads the unconditional ``network_stats["detections"]`` roll-up.
    """
    if algorithm not in _DATASETS:
        raise ParameterError(
            f"algorithm must be one of {sorted(_DATASETS)}, "
            f"got {algorithm!r}")
    if not 0.0 <= loss_rate < 1.0:
        raise ParameterError(
            f"loss_rate must lie in [0, 1), got {loss_rate!r}")
    config = ExperimentConfig(
        algorithm=algorithm, dataset=_DATASETS[algorithm],
        n_leaves=n_leaves, branching=branching, window_size=window_size,
        measure_ticks=measure_ticks, n_runs=1, seed=seed,
        loss_rate=loss_rate, reliable_transport=True,
        staleness_horizon=staleness_horizon)
    result = run_accuracy_run(config, seed)
    detections = result.network_stats["detections"]
    assert isinstance(detections, dict)
    words_per_detection = detections.get("words_per_detection")
    recall = result.recall(1) if 1 in result.levels else None
    return {
        "algorithm": algorithm,
        "loss_rate": loss_rate,
        "staleness_horizon": staleness_horizon,
        "n_flags": int(detections["n_flags"]),        # type: ignore[arg-type]
        "latency_p50": detections["p50"],
        "latency_p99": detections["p99"],
        "latency_max": detections["max"],
        "by_tier": detections["by_tier"],
        "words_per_detection": words_per_detection,
        "recall_level1": recall,
    }


def run_latency_benchmark(*, algorithms: "tuple[str, ...]" = ("d3", "mgdd"),
                          loss_rates: "tuple[float, ...]" = (0.0, 0.25),
                          staleness_horizons: "tuple[int, ...]" = (30, 90),
                          n_leaves: int = 9, branching: int = 3,
                          window_size: int = 120, measure_ticks: int = 120,
                          seed: int = 7) -> "dict[str, object]":
    """Run the loss x staleness grid; return the result document."""
    cells = [
        run_latency_cell(
            algorithm=algorithm, loss_rate=loss_rate,
            staleness_horizon=horizon, n_leaves=n_leaves,
            branching=branching, window_size=window_size,
            measure_ticks=measure_ticks, seed=seed)
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
    (3) the sweep flagged *something* overall -- an all-empty grid
    measures nothing.  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    total_flags = 0
    for cell in cells:
        label = (f"{cell['algorithm']} loss_rate={cell['loss_rate']} "
                 f"staleness={cell['staleness_horizon']}")
        total_flags += int(cell["n_flags"])  # type: ignore[arg-type]
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
    if total_flags == 0:
        failures.append(
            "no cell flagged any detection; the sweep measured nothing")
    return failures


def format_table(results: "dict[str, object]") -> str:
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
            _num(cell["recall_level1"], ".3f"),
        ))
    return render_grid(rows)
