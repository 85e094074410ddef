"""Experiment harness: ground truth, accuracy metrics, and the
reproduction of every table and figure of the paper's Section 10.
"""

from repro.eval.experiments import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    memory_experiment,
    selectivity_experiment,
)
from repro.eval.export import export_result, export_rows
from repro.eval.harness import (
    AccuracyResult,
    ExperimentConfig,
    LevelResult,
    make_streams,
    run_accuracy_experiment,
    run_accuracy_run,
)
from repro.eval.metrics import PrecisionRecall, precision_recall
from repro.eval.provenance import git_sha, run_metadata
from repro.eval.reporting import render_table
from repro.eval.resilience import (
    check_degradation,
    run_resilience_benchmark,
    run_resilience_cell,
)
from repro.eval.truth import (
    DistanceTruth,
    GlobalMDEFTruth,
    NodeWindow,
    WindowBank,
)

__all__ = [
    "ExperimentConfig",
    "AccuracyResult",
    "LevelResult",
    "run_accuracy_run",
    "run_accuracy_experiment",
    "make_streams",
    "PrecisionRecall",
    "precision_recall",
    "render_table",
    "export_result",
    "export_rows",
    "NodeWindow",
    "WindowBank",
    "DistanceTruth",
    "GlobalMDEFTruth",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "memory_experiment",
    "selectivity_experiment",
    "run_resilience_cell",
    "run_resilience_benchmark",
    "check_degradation",
    "run_metadata",
    "git_sha",
]
