"""Latency smoke: event-time -> flag-time accounting under loss.

Runs the same grid as ``repro bench-latency`` so CI can gate on it:
per (algorithm, loss rate, staleness horizon) cell the benchmark
records the flag count, latency percentiles in ticks, communication
cost per detection and level-1 recall.  The invariants: latencies are
never negative, a lossless cell flags with zero delay (nothing detains
a report when nothing is lost), and the grid is deterministic -- the
sweep is seeded end to end, so re-running a cell replays bit for bit.
Results are written to a temporary directory, so a run leaves the
checkout untouched.
"""

from __future__ import annotations

import pytest

from repro.eval.provenance import write_results
from repro.eval.resilience import (
    check_latency,
    run_latency_benchmark,
    run_resilience_cell,
)

#: Reduced grid: both algorithms, a lossless and a lossy regime, a
#: tight and a loose staleness horizon.  360 measured ticks, so MGDD's
#: lossless cells flag too (at 120 they flag nothing).
GRID = dict(algorithms=("d3", "mgdd"), loss_rates=(0.0, 0.25),
            staleness_horizons=(30, 90), n_leaves=9, branching=3,
            window_size=120, measure_ticks=360, seed=7)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    current = run_latency_benchmark(**GRID)
    write_results(current,
                  tmp_path_factory.mktemp("bench") / "BENCH_latency.json")
    return current


def test_grid_is_complete(results):
    # 2 algorithms x 2 loss rates x 2 staleness horizons.
    assert len(results["cells"]) == 8


def test_latency_contract_holds(results):
    failures = check_latency(results)
    assert not failures, "; ".join(failures)


def test_lossless_cells_flag_with_zero_delay(results):
    for cell in results["cells"]:
        if cell["loss_rate"] == 0.0 and cell["n_flags"]:
            assert cell["latency_max"] == 0, cell


def test_loss_induces_positive_latency_somewhere(results):
    # The point of the sweep: under loss + reliable transport at least
    # one escalated report arrives late, so some cell's worst-case
    # latency is positive.
    lossy = [c for c in results["cells"] if c["loss_rate"] > 0.0]
    assert any(c["latency_max"] and c["latency_max"] > 0 for c in lossy)


def test_words_per_detection_reported_where_flagged(results):
    for cell in results["cells"]:
        if cell["n_flags"]:
            assert cell["words_per_detection"] > 0.0
        else:
            assert cell["words_per_detection"] is None


def test_latency_cell_replays_bit_for_bit():
    kwargs = dict(algorithm="d3", loss_rate=0.25, staleness_horizon=30,
                  n_leaves=9, branching=3, window_size=120,
                  measure_ticks=120, seed=7)
    assert run_resilience_cell(**kwargs) == run_resilience_cell(**kwargs)
