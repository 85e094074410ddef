"""Fleet smoke: the multiprocess pilot and its telemetry contract.

Runs the same grid as ``repro bench-fleet`` on a reduced workload so CI
can gate on it: streams partitioned across real spawned worker
processes, flags forwarded to a coordinator over a multiprocessing
queue with seeded loss, every worker tracing into its own spool.  The
assembled detections must be **bit-identical** to the single-process
run, the merged trace must validate and balance the fleet-summed
message counters exactly, and at least one lineage record per cell must
span two worker ids.  Results are written to a temporary directory,
so a run leaves the checkout untouched.
"""

from __future__ import annotations

import pytest

from repro.eval.fleet import (
    check_fleet,
    run_fleet_benchmark,
    run_fleet_cell,
)
from repro.eval.provenance import write_results

#: Reduced grid: two fleet widths, a lossless and a lossy+crashy cell.
GRID = dict(algorithm="d3", workers=(2, 4), loss_rates=(0.0, 0.25),
            n_streams=8, n_ticks=240, window_size=100, sample_size=40,
            batch_size=32, checkpoint_every=64, seed=7,
            use_processes=True)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    current = run_fleet_benchmark(**GRID)
    write_results(current,
                  tmp_path_factory.mktemp("bench") / "BENCH_fleet.json")
    return current


def test_grid_is_complete(results):
    # 2 fleet widths x 2 loss rates.
    assert len(results["cells"]) == 4


def test_fleet_contract_holds(results):
    failures = check_fleet(results)
    assert not failures, "; ".join(failures)


def test_sharding_never_changes_detections(results):
    # The acceptance criterion: however the streams are partitioned,
    # the assembled worker detections are np.array_equal to the
    # single-process engine's.
    for cell in results["cells"]:
        assert cell["divergence"] == 0, cell
        assert cell["n_flags"] > 0, cell


def test_telemetry_balances_globally(results):
    for cell in results["cells"]:
        assert cell["conservation_failures"] == [], cell
        assert cell["schema_problems"] == 0, cell
        assert cell["n_sent"] \
            == cell["n_delivered"] + cell["n_dropped"], cell


def test_lossy_cells_drop_and_recover(results):
    lossy = [c for c in results["cells"] if c["loss_rate"] > 0]
    assert lossy
    for cell in lossy:
        assert cell["n_dropped"] > 0, cell
        assert cell["n_recoveries"] == cell["n_crashes_scheduled"] > 0

    lossless = [c for c in results["cells"] if c["loss_rate"] == 0]
    for cell in lossless:
        assert cell["n_dropped"] == 0, cell


def test_lineage_spans_processes(results):
    for cell in results["cells"]:
        assert cell["n_level1_records"] > 0, cell
        assert cell["n_level1_complete"] == cell["n_level1_records"]
        assert cell["n_cross_worker"] > 0, cell


def test_sequential_mode_is_equivalent():
    kwargs = dict(algorithm="d3", n_workers=2, n_streams=4, n_ticks=160,
                  window_size=80, sample_size=32, batch_size=32,
                  checkpoint_every=48, loss_rate=0.25, crash_ticks=(80,),
                  seed=7, trace=True)
    spawned = run_fleet_cell(use_processes=True, **kwargs)
    sequential = run_fleet_cell(use_processes=False, **kwargs)
    # Wall-clock fields differ run to run; everything deterministic
    # must not -- the in-process test mode stands in for real workers.
    timing = {"fleet_elapsed_s", "single_elapsed_s", "readings_per_sec",
              "use_processes"}
    assert {k: v for k, v in spawned.items() if k not in timing} \
        == {k: v for k, v in sequential.items() if k not in timing}
