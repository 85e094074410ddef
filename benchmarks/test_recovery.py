"""Recovery smoke: the supervised engine under deterministic crashes.

Runs the same grid as ``repro bench-recovery`` on a reduced workload so
CI can gate on it: with process kills injected at seeded ticks, the
supervised D3 and MGDD engines must restore from checkpoint, replay the
journal suffix, and end up **bit-identical** to an uninterrupted run --
zero detection divergence, replay bounded by the checkpoint cadence,
every scheduled crash recovered.  Results are written to a
temporary directory, so a run leaves the checkout untouched.
"""

from __future__ import annotations

import pytest

from repro.eval.provenance import write_results
from repro.eval.recovery import (
    check_recovery,
    run_recovery_benchmark,
    run_recovery_cell,
)

#: Reduced grid: both algorithms, a light and a heavy crash rate, a
#: tight and a loose checkpoint cadence.
GRID = dict(algorithms=("d3", "mgdd"), crash_rates=(0.01, 0.05),
            checkpoint_cadences=(32, 128), n_streams=4, n_ticks=400,
            window_size=120, sample_size=50, seed=7)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    current = run_recovery_benchmark(**GRID)
    write_results(current,
                  tmp_path_factory.mktemp("bench") / "BENCH_recovery.json")
    return current


def _cell(results, algorithm, crash_rate, checkpoint_every):
    return next(c for c in results["cells"]
                if c["algorithm"] == algorithm
                and c["crash_rate"] == crash_rate
                and c["checkpoint_every"] == checkpoint_every)


def test_grid_is_complete(results):
    # 2 algorithms x 2 crash rates x 2 cadences.
    assert len(results["cells"]) == 8


def test_recovery_contract_holds(results):
    failures = check_recovery(results)
    assert not failures, "; ".join(failures)


def test_zero_divergence_everywhere(results):
    # The acceptance criterion: a crashed-and-restored run must be
    # np.array_equal to the uninterrupted run, for D3 and MGDD alike.
    for cell in results["cells"]:
        assert cell["divergence"] == 0, cell


def test_crashes_actually_fired(results):
    for algorithm in ("d3", "mgdd"):
        cell = _cell(results, algorithm, 0.05, 32)
        assert cell["n_crashes_scheduled"] == 20
        assert cell["n_recoveries"] == 20
        assert cell["recovery_max_s"] > 0.0
        assert cell["max_checkpoint_bytes"] > 0


def test_replay_bounded_by_cadence(results):
    # Tighter cadence must never replay a full loose-cadence window.
    for cell in results["cells"]:
        assert cell["max_replayed_ticks"] < cell["checkpoint_every"]


def test_recovery_cell_replays_bit_for_bit():
    kwargs = dict(algorithm="d3", crash_rate=0.05, checkpoint_every=32,
                  n_streams=4, n_ticks=200, window_size=120,
                  sample_size=50, seed=7)
    first = run_recovery_cell(**kwargs)
    second = run_recovery_cell(**kwargs)
    # Wall-clock fields differ run to run; everything deterministic must
    # not.
    timing = {"recovery_p50_s", "recovery_p99_s", "recovery_max_s",
              "supervised_elapsed_s", "max_checkpoint_bytes"}
    assert {k: v for k, v in first.items() if k not in timing} \
        == {k: v for k, v in second.items() if k not in timing}
