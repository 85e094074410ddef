"""Resilience smoke: the fault-tolerant network layer under load.

Runs the same grid as ``repro bench-resilience`` on a reduced workload
so CI can gate on it: with a fifth-plus of the leaf sensors crashing
mid-run and lossy links, D3 and MGDD must complete the standard harness
run, recall must degrade smoothly (no cliff to zero), the message counts
must include the retransmit/ack overhead, per-kind conservation
(``sent == delivered + dropped``) must hold, and the whole fault
injection must replay bit for bit under a fixed seed.  Results are
written to a temporary directory, so a run leaves the checkout
untouched.
"""

from __future__ import annotations

import pytest

from repro.eval.provenance import write_results
from repro.eval.resilience import (
    check_degradation,
    run_resilience_benchmark,
    run_resilience_cell,
)

#: Reduced grid: both algorithms, one lossy and one crashing column.
GRID = dict(algorithms=("d3", "mgdd"), loss_rates=(0.0, 0.1),
            crash_fractions=(0.0, 0.25), n_leaves=8, window_size=500,
            measure_ticks=400, seed=7)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    current = run_resilience_benchmark(**GRID)
    write_results(current,
                  tmp_path_factory.mktemp("bench") / "BENCH_resilience.json")
    return current


def _cell(results, algorithm, loss_rate, crash_fraction):
    return next(c for c in results["cells"]
                if c["algorithm"] == algorithm
                and c["loss_rate"] == loss_rate
                and c["crash_fraction"] == crash_fraction)


def test_grid_is_complete(results):
    # 2 algorithms x 2 loss rates x 2 crash fractions.
    assert len(results["cells"]) == 8


def test_degrades_gracefully(results):
    failures = check_degradation(results)
    assert not failures, "; ".join(failures)


def test_faulted_runs_complete_with_recall(results):
    # The acceptance scenario: >= 20% of leaves crashed plus 10% link
    # loss, both detectors still find outliers.
    for algorithm in ("d3", "mgdd"):
        cell = _cell(results, algorithm, 0.1, 0.25)
        assert cell["n_true_outliers"] > 0
        assert cell["recall"] > 0.0
        assert len(cell["network"]["crashed_nodes"]) >= 0.2 * 8


def test_message_counts_include_transport_overhead(results):
    for algorithm in ("d3", "mgdd"):
        lossy = _cell(results, algorithm, 0.1, 0.25)
        transport = lossy["network"]["transport"]
        assert transport["retransmissions"] > 0
        assert lossy["network"]["counts_by_kind"].get("Ack", 0) > 0
        # Overhead is relative to the fault-free cell of the same
        # algorithm, whose sends already include the flat ack cost.
        assert lossy["message_overhead"] > 1.0


def test_conservation_holds_per_kind(results):
    for cell in results["cells"]:
        network = cell["network"]
        assert network["conservation_failures"] == []
        assert network["messages_sent"] == \
            network["messages_delivered"] + network["messages_dropped"]


def test_per_child_staleness_reported(results):
    for algorithm in ("d3", "mgdd"):
        cell = _cell(results, algorithm, 0.1, 0.25)
        staleness = cell["network"]["child_staleness"]
        assert staleness, "no parent reported child staleness"
        for children in staleness.values():
            assert children and all(s >= 0 for s in children.values())


def test_fault_injection_replays_bit_for_bit():
    kwargs = dict(algorithm="d3", loss_rate=0.1, crash_fraction=0.25,
                  n_leaves=8, window_size=500, measure_ticks=400, seed=7)
    first = run_resilience_cell(**kwargs)
    second = run_resilience_cell(**kwargs)
    assert first == second
