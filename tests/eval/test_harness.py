"""End-to-end accuracy harness (small but real runs)."""

from __future__ import annotations

import dataclasses

import pytest

from repro._exceptions import ParameterError
from repro.eval.harness import (
    ExperimentConfig,
    make_streams,
    run_accuracy_experiment,
    run_accuracy_run,
)

QUICK_D3 = ExperimentConfig(
    algorithm="d3", dataset="synthetic", n_leaves=8, window_size=500,
    measure_ticks=400, truth_stride=4, n_runs=2, seed=5,
    compare_histogram=True)

QUICK_MGDD = ExperimentConfig(
    algorithm="mgdd", dataset="plateau", n_leaves=8, window_size=500,
    measure_ticks=400, truth_stride=4, n_runs=2, seed=5)


class TestConfig:
    def test_derived_quantities(self):
        config = ExperimentConfig(window_size=2_000, sample_ratio=0.05)
        assert config.sample_size == 100
        assert config.warmup == 2_000
        assert config.n_ticks == 4_000
        assert config.distance_spec.count_threshold == 9   # 45 * 2000/10000

    def test_explicit_threshold_wins(self):
        config = ExperimentConfig(distance_threshold=33.0)
        assert config.distance_spec.count_threshold == 33.0

    def test_mdef_spec_carries_min_mdef(self):
        config = ExperimentConfig(mdef_min_mdef=0.7)
        assert config.mdef_spec.min_mdef == 0.7

    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "both"},
        {"dataset": "weather"},
        {"dataset": "environment", "n_dims": 1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentConfig(**kwargs)


class TestStreams:
    @pytest.mark.parametrize("dataset,n_dims", [
        ("synthetic", 1), ("synthetic", 2), ("plateau", 1),
        ("engine", 1), ("environment", 2),
    ])
    def test_every_dataset_generates(self, dataset, n_dims):
        config = ExperimentConfig(dataset=dataset, n_dims=n_dims,
                                  n_leaves=3, window_size=100,
                                  measure_ticks=50)
        streams = make_streams(config, seed=1)
        assert streams.n_sensors == 3
        assert streams.length == config.n_ticks
        assert streams.n_dims == n_dims


class TestD3Run:
    @pytest.fixture(scope="class")
    def result(self):
        return run_accuracy_run(QUICK_D3, seed=5)

    def test_levels_present(self, result):
        assert set(result.levels) == {1, 2, 3}   # 8 leaves, branching 4

    def test_accuracy_sane(self):
        # One QUICK_D3 run sees 1-7 true leaf outliers, too few for a
        # ratio bar (its precision spans 0.0-0.75 over seeds 0-9), so
        # the bars hold on confusion counts pooled over six seeds at a
        # size with ~12 true leaf outliers per run.
        config = dataclasses.replace(QUICK_D3, window_size=1000,
                                     measure_ticks=800,
                                     compare_histogram=False)
        runs = [run_accuracy_run(config, seed=seed) for seed in range(6)]
        tp = sum(run.levels[1].kernel.true_positives for run in runs)
        fp = sum(run.levels[1].kernel.false_positives for run in runs)
        fn = sum(run.levels[1].kernel.false_negatives for run in runs)
        assert tp / (tp + fp) > 0.6
        assert tp / (tp + fn) > 0.3
        assert all(run.n_true_outliers[1] > 0 for run in runs)

    def test_histogram_comparison_present(self, result):
        assert result.levels[1].histogram is not None
        assert 0.0 <= result.precision(1, model="histogram") <= 1.0

    def test_missing_histogram_raises(self):
        config = ExperimentConfig(n_leaves=4, window_size=200,
                                  measure_ticks=50, compare_histogram=False)
        run = run_accuracy_run(config, seed=0)
        with pytest.raises(ParameterError):
            run.precision(1, model="histogram")


class TestMGDDRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_accuracy_run(QUICK_MGDD, seed=7)

    def test_only_level_one(self, result):
        assert set(result.levels) == {1}

    def test_detects_gap_outliers(self, result):
        assert result.n_true_outliers[1] > 0
        assert result.recall(1) > 0.3


class TestExperimentPooling:
    def test_pools_confusion_counts(self):
        merged = run_accuracy_experiment(QUICK_D3)
        singles = [run_accuracy_run(QUICK_D3, seed=QUICK_D3.seed),
                   run_accuracy_run(QUICK_D3, seed=QUICK_D3.seed + 1_000)]
        expected_tp = sum(r.levels[1].kernel.true_positives for r in singles)
        assert merged.levels[1].kernel.true_positives == expected_tp
        expected_truth = sum(r.n_true_outliers[1] for r in singles)
        assert merged.n_true_outliers[1] == expected_truth

    def test_on_run_callback(self):
        seen = []
        run_accuracy_experiment(
            QUICK_MGDD, on_run=lambda i, result: seen.append(i))
        assert seen == [0, 1]


class TestRunSpread:
    def test_pooled_result_reports_spread(self):
        merged = run_accuracy_experiment(QUICK_MGDD)
        assert len(merged.runs) == 2
        low, high = merged.run_spread(1, "recall")
        assert 0.0 <= low <= high <= 1.0

    def test_single_run_has_no_spread(self):
        run = run_accuracy_run(QUICK_MGDD, seed=1)
        with pytest.raises(ParameterError):
            run.run_spread(1)
