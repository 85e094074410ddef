"""Kernel density estimator behaviour (paper Sections 4-5, Theorem 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import EmptyModelError, ParameterError
from repro.core.estimator import KernelDensityEstimator, merge_estimators
from repro.core.kernels import GAUSSIAN


def make_kde(values, **kwargs):
    return KernelDensityEstimator(np.asarray(values), **kwargs)


class TestConstruction:
    def test_1d_list_accepted(self):
        kde = make_kde([0.1, 0.2, 0.3])
        assert kde.n_dims == 1
        assert kde.sample_size == 3

    def test_2d_shape(self, rng):
        kde = make_kde(rng.uniform(size=(50, 2)))
        assert kde.n_dims == 2
        assert kde.bandwidths.shape == (2,)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyModelError):
            make_kde(np.empty((0, 1)))

    def test_nan_sample_rejected(self):
        with pytest.raises(ParameterError):
            make_kde([0.1, float("nan")])

    def test_window_size_default_is_sample_size(self):
        assert make_kde([0.1, 0.2]).window_size == 2

    def test_invalid_window_size_rejected(self):
        with pytest.raises(ParameterError):
            make_kde([0.1], window_size=0)

    def test_explicit_bandwidths_used(self):
        kde = make_kde([0.5], bandwidths=0.07)
        assert kde.bandwidths[0] == pytest.approx(0.07)

    def test_bandwidth_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            make_kde(np.zeros((5, 2)), bandwidths=np.array([0.1]))

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ParameterError):
            make_kde([0.5], bandwidths=-0.1)

    def test_matrix_stddev_rejected(self):
        with pytest.raises(ParameterError, match="1-d"):
            make_kde(np.zeros((5, 2)), stddev=np.ones((3, 2)))

    def test_sample_is_read_only(self):
        kde = make_kde([0.1, 0.2])
        with pytest.raises(ValueError):
            kde.sample[0, 0] = 9.0

    def test_distinct_sample_size_counts_duplicates_once(self):
        kde = make_kde([0.1, 0.1, 0.2])
        assert kde.sample_size == 3
        assert kde.distinct_sample_size == 2


class TestFromWindow:
    def test_full_window_used_when_sample_size_omitted(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window)
        assert kde.sample_size == gaussian_window.shape[0]
        assert kde.window_size == gaussian_window.shape[0]

    def test_subsample_drawn(self, gaussian_window, rng):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100, rng=rng)
        assert kde.sample_size == 100
        assert kde.window_size == gaussian_window.shape[0]

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyModelError):
            KernelDensityEstimator.from_window(np.empty((0, 1)))


class TestPdf:
    def test_integrates_to_one(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 200)
        xs = np.linspace(-0.2, 1.2, 4001)
        integral = np.trapezoid(kde.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_nonnegative(self, gaussian_window, rng):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100, rng=rng)
        assert (kde.pdf(np.linspace(0, 1, 200)) >= 0).all()

    def test_peaks_near_cluster(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 300)
        assert kde.pdf([0.4])[0] > 10 * kde.pdf([0.8])[0]

    def test_2d_pdf_shape(self, rng):
        kde = make_kde(rng.uniform(size=(100, 2)))
        assert kde.pdf(rng.uniform(size=(7, 2))).shape == (7,)


class TestRangeProbability:
    def test_total_mass_for_interior_data(self, rng):
        kde = make_kde(rng.uniform(0.3, 0.7, 500))
        assert kde.range_probability(-1.0, 2.0) == pytest.approx(1.0)

    def test_empty_interval_zero(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100)
        assert kde.range_probability(0.95, 0.99) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_interval_width(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100)
        narrow = kde.range_probability(0.38, 0.42)
        wide = kde.range_probability(0.30, 0.50)
        assert wide >= narrow

    def test_additive_over_partition(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100)
        whole = kde.range_probability(0.2, 0.6)
        parts = kde.range_probability(0.2, 0.4) + kde.range_probability(0.4, 0.6)
        assert whole == pytest.approx(parts, abs=1e-9)

    def test_batch_matches_scalar(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 150)
        lows = np.array([[0.35], [0.2], [0.7]])
        highs = np.array([[0.45], [0.3], [0.9]])
        batch = kde.range_probability(lows, highs)
        for i in range(3):
            assert batch[i] == pytest.approx(
                kde.range_probability(lows[i], highs[i]), abs=1e-12)

    def test_inverted_interval_rejected(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 50)
        with pytest.raises(ParameterError):
            kde.range_probability(0.5, 0.4)

    def test_mismatched_batch_shapes_rejected(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 50)
        with pytest.raises(ParameterError):
            kde.range_probability(np.zeros((2, 1)), np.ones((3, 1)))

    def test_2d_box_probability(self, rng):
        kde = make_kde(rng.uniform(size=(400, 2)))
        inside = kde.range_probability([0.0, 0.0], [1.0, 1.0])
        assert 0.8 < inside <= 1.0

    def test_gaussian_kernel_also_supported(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100,
                                                 kernel=GAUSSIAN)
        assert 0.0 <= kde.range_probability(0.3, 0.5) <= 1.0


class TestSorted1DFastPath:
    """The scalar 1-d path must agree exactly with the dense path: both
    evaluate and reduce one Eq. 5 expression."""

    @pytest.mark.parametrize("low,high", [
        (0.0, 1.0), (0.39, 0.41), (0.7, 0.72), (-0.5, 0.2), (0.405, 0.405),
        (0.9, 1.5),
    ])
    def test_agrees_with_dense(self, gaussian_window, low, high):
        kde = KernelDensityEstimator.from_window(gaussian_window, 128)
        fast = kde.range_probability(low, high)
        dense = float(kde._range_probability_batch(
            np.array([[low]]), np.array([[high]]))[0])
        assert fast == dense

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-0.5, max_value=1.5),
           st.floats(min_value=0.0, max_value=1.0))
    def test_property_agreement(self, low, width):
        rng = np.random.default_rng(7)
        kde = make_kde(rng.normal(0.5, 0.1, 64))
        high = low + width
        fast = kde.range_probability(low, high)
        dense = float(kde._range_probability_batch(
            np.array([[low]]), np.array([[high]]))[0])
        assert fast == dense


class TestNeighborhoodCount:
    def test_matches_exact_count_on_dense_sample(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window)
        estimated = kde.neighborhood_count(0.4, 0.02)
        exact = np.sum(np.abs(gaussian_window - 0.4) <= 0.02)
        assert estimated == pytest.approx(exact, rel=0.2)

    def test_scales_with_window_size(self, rng):
        sample = rng.normal(0.5, 0.05, 200)
        small = make_kde(sample, window_size=1_000)
        large = make_kde(sample, window_size=10_000)
        ratio = large.neighborhood_count(0.5, 0.01) / \
            small.neighborhood_count(0.5, 0.01)
        assert ratio == pytest.approx(10.0)

    def test_batch_points(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100)
        counts = kde.neighborhood_count(np.array([[0.4], [0.8]]), 0.01)
        assert counts.shape == (2,)
        assert counts[0] > counts[1]

    def test_invalid_radius_rejected(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 50)
        with pytest.raises(ParameterError):
            kde.neighborhood_count(0.4, 0.0)


class TestGridSummaries:
    def test_interval_probabilities_sum_to_total(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 100)
        edges = np.linspace(0, 1, 65)
        masses = kde.interval_probabilities(edges)
        assert masses.shape == (64,)
        assert masses.sum() == pytest.approx(
            kde.range_probability(0.0, 1.0), abs=1e-9)

    def test_interval_probabilities_rejects_2d_model(self, rng):
        kde = make_kde(rng.uniform(size=(20, 2)))
        with pytest.raises(ParameterError):
            kde.interval_probabilities(np.linspace(0, 1, 5))

    def test_interval_probabilities_requires_increasing_edges(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 20)
        with pytest.raises(ParameterError):
            kde.interval_probabilities(np.array([0.5, 0.5]))

    def test_grid_probabilities_1d_matches_intervals(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 64)
        grid = kde.grid_probabilities(32)
        intervals = kde.interval_probabilities(np.linspace(0, 1, 33))
        np.testing.assert_allclose(grid, intervals, atol=1e-12)

    def test_grid_probabilities_2d_total_mass(self, rng):
        kde = make_kde(rng.uniform(0.2, 0.8, size=(300, 2)))
        grid = kde.grid_probabilities(16)
        assert grid.shape == (16, 16)
        assert grid.sum() == pytest.approx(1.0, abs=0.02)

    def test_grid_probabilities_3d_shape(self, rng):
        kde = make_kde(rng.uniform(0.3, 0.7, size=(50, 3)))
        assert kde.grid_probabilities(4).shape == (4, 4, 4)

    def test_grid_probabilities_4d_generic_path(self, rng):
        kde = make_kde(rng.uniform(0.3, 0.7, size=(10, 4)))
        grid = kde.grid_probabilities(3)
        assert grid.shape == (3, 3, 3, 3)
        assert grid.sum() == pytest.approx(1.0, abs=0.05)

    def test_invalid_grid_arguments(self, gaussian_window):
        kde = KernelDensityEstimator.from_window(gaussian_window, 20)
        with pytest.raises(ParameterError):
            kde.grid_probabilities(0)
        with pytest.raises(ParameterError):
            kde.grid_probabilities(8, low=1.0, high=0.0)


class TestMean:
    def test_mean_equals_sample_mean(self, rng):
        sample = rng.uniform(size=(100, 2))
        kde = make_kde(sample)
        np.testing.assert_allclose(kde.mean(), sample.mean(axis=0))


class TestMerge:
    def test_merged_sample_is_concatenation(self, rng):
        a = make_kde(rng.normal(0.3, 0.02, 50))
        b = make_kde(rng.normal(0.6, 0.02, 70))
        merged = merge_estimators([a, b])
        assert merged.sample_size == 120
        assert merged.window_size == a.window_size + b.window_size

    def test_merged_mass_covers_both_modes(self, rng):
        a = make_kde(rng.normal(0.3, 0.02, 200), window_size=1000)
        b = make_kde(rng.normal(0.6, 0.02, 200), window_size=1000)
        merged = merge_estimators([a, b])
        assert merged.range_probability(0.25, 0.35) > 0.3
        assert merged.range_probability(0.55, 0.65) > 0.3

    def test_explicit_window_size(self, rng):
        a = make_kde(rng.uniform(size=10))
        merged = merge_estimators([a, a], window_size=77)
        assert merged.window_size == 77

    def test_empty_merge_rejected(self):
        with pytest.raises(EmptyModelError):
            merge_estimators([])

    def test_dimension_mismatch_rejected(self, rng):
        a = make_kde(rng.uniform(size=10))
        b = make_kde(rng.uniform(size=(10, 2)))
        with pytest.raises(ParameterError):
            merge_estimators([a, b])

    def test_kernel_mismatch_rejected(self, rng):
        a = make_kde(rng.uniform(size=10))
        b = make_kde(rng.uniform(size=10), kernel=GAUSSIAN)
        with pytest.raises(ParameterError):
            merge_estimators([a, b])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_range_probability_axioms(sample, a, b):
    """P is a measure: within [0, 1] and monotone under containment."""
    kde = KernelDensityEstimator(np.array(sample))
    lo, hi = min(a, b), max(a, b)
    inner = kde.range_probability(lo, hi)
    outer = kde.range_probability(lo - 0.1, hi + 0.1)
    assert 0.0 <= inner <= 1.0
    assert inner <= outer + 1e-12


class TestMergePooledDeviation:
    def test_disjoint_windows_recover_exact_union_std(self, rng):
        """Full-sample models of two disjoint windows merge to the exact
        deviation of the concatenated window (law of total variance)."""
        window_a = rng.normal(0.3, 0.02, 400)
        window_b = rng.normal(0.7, 0.05, 600)
        a = KernelDensityEstimator.from_window(window_a)
        b = KernelDensityEstimator.from_window(window_b)
        merged = merge_estimators([a, b])
        union = np.concatenate([window_a, window_b])
        np.testing.assert_allclose(merged.stddev[0], union.std(), rtol=1e-12)
        assert merged.window_size == 1_000

    def test_pooling_beats_concatenated_sample_std(self, rng):
        """The size-biased concatenated sample gets the union deviation
        wrong whenever the member windows are unequally represented."""
        window_a = rng.normal(0.2, 0.01, 2_000)
        window_b = rng.normal(0.8, 0.01, 2_000)
        a = KernelDensityEstimator.from_window(window_a, sample_size=10,
                                               rng=rng)
        b = KernelDensityEstimator.from_window(window_b, sample_size=90,
                                               rng=rng)
        merged = merge_estimators([a, b])
        union_std = np.concatenate([window_a, window_b]).std()
        naive_std = merged.sample.std()
        assert abs(merged.stddev[0] - union_std) < abs(naive_std - union_std)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=2, max_size=50),
       st.floats(min_value=1e-4, max_value=0.5),
       st.floats(min_value=-0.3, max_value=1.3),
       st.floats(min_value=0.0, max_value=0.8))
def test_sorted_1d_agrees_with_batch_path(sample, bandwidth, low, width):
    """The single-box and batch 1-d range queries agree exactly: boxes
    inside, straddling and completely missing the sample alike."""
    kde = KernelDensityEstimator(np.array(sample),
                                 bandwidths=np.array([bandwidth]))
    high = low + width
    fast = kde.range_probability(low, high)
    batch = kde._range_probability_batch(np.array([[low]]),
                                         np.array([[high]]))
    assert batch.shape == (1,)
    assert fast == batch[0]
