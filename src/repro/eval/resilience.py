"""Resilience benchmark: detection quality and message overhead under
injected faults (docs/FAULT_MODEL.md).

The fault-tolerant network layer promises *graceful* degradation: with a
fraction of the leaf sensors crashing mid-run and lossy links between
the survivors, D3 and MGDD should keep finding outliers -- recall easing
down with the fault rate rather than cliffing to zero -- while the
reliable transport's retransmissions and acks show up honestly in the
message counts.  This module measures that promise on a grid of
(loss rate x crash fraction) cells per algorithm:

* every cell runs the standard accuracy harness
  (:func:`~repro.eval.harness.run_accuracy_run`) with the cell's fault
  plan, the per-hop ack/retransmit transport, leader bearer repair and
  the detectors' staleness horizon enabled;
* recall/precision come from the same exact ground truth as the
  accuracy experiments (truth is computed from the real streams, so
  crashed sensors' missed outliers count against recall -- the honest
  accounting);
* message overhead is each cell's total sends (data + retransmissions +
  acks + handoffs) relative to the algorithm's fault-free cell.

Results are written to ``BENCH_resilience.json``.
:func:`check_degradation` asserts the no-cliff property and the per-kind
conservation identity ``sent == delivered + dropped`` for every cell.
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
]

#: Default output location: the repository root.
DEFAULT_OUTPUT = "BENCH_resilience.json"

#: Dataset per algorithm: the one whose ground truth exercises each
#: detector at benchmark scale (matching the accuracy-test suites).
_DATASETS = MappingProxyType({"d3": "synthetic", "mgdd": "plateau"})


def run_resilience_cell(*, algorithm: str, loss_rate: float,
                        crash_fraction: float,
                        duplication_rate: float = 0.0,
                        n_leaves: int = 8, window_size: int = 500,
                        measure_ticks: int = 400, truth_stride: int = 4,
                        staleness_horizon: "int | None" = None,
                        seed: int = 7,
                        obs: "bool | str" = False) -> "dict[str, object]":
    """One (algorithm, loss, crash) cell of the resilience grid.

    The reliable transport runs in *every* cell -- including the
    fault-free baseline, so overhead ratios isolate fault-induced
    retransmissions from the protocol's flat ack cost.  The staleness
    horizon defaults to half the window.  ``obs`` attaches the
    :mod:`repro.obs` instrumentation (see
    :func:`~repro.eval.harness.run_accuracy_run`); the snapshot lands
    in the cell's ``network["obs"]``.
    """
    if algorithm not in _DATASETS:
        raise ParameterError(
            f"algorithm must be one of {sorted(_DATASETS)}, "
            f"got {algorithm!r}")
    if staleness_horizon is None:
        staleness_horizon = max(1, window_size // 2)
    config = ExperimentConfig(
        algorithm=algorithm, dataset=_DATASETS[algorithm],
        n_leaves=n_leaves, window_size=window_size,
        measure_ticks=measure_ticks, truth_stride=truth_stride, n_runs=1,
        seed=seed, loss_rate=loss_rate, crash_fraction=crash_fraction,
        duplication_rate=duplication_rate, reliable_transport=True,
        repair_leaders=crash_fraction > 0.0,
        staleness_horizon=staleness_horizon)
    result = run_accuracy_run(config, seed=seed, obs=obs)
    return {
        "algorithm": algorithm,
        "loss_rate": loss_rate,
        "crash_fraction": crash_fraction,
        "duplication_rate": duplication_rate,
        "precision": result.precision(1),
        "recall": result.recall(1),
        "n_true_outliers": result.n_true_outliers[1],
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
