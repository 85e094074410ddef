"""Brute-force ground-truth detectors (paper Section 10, Comparisons)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import ParameterError
from repro.core.baselines import (
    brute_force_distance_outliers,
    brute_force_distance_outliers_naive,
    brute_force_mdef_outliers,
    chebyshev_neighbor_counts,
    chunked_neighbor_counts,
    mdef_outliers_against,
)
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec


class TestChebyshevCounts:
    def test_counts_include_self(self):
        values = np.array([[0.1], [0.1], [0.5]])
        counts = chebyshev_neighbor_counts(values, values, 0.01)
        assert counts.tolist() == [2, 2, 1]

    def test_matches_direct_computation_2d(self, rng):
        values = rng.uniform(size=(200, 2))
        counts = chebyshev_neighbor_counts(values, values, 0.05)
        direct = (np.abs(values[:, None, :] - values[None, :, :])
                  .max(axis=2) <= 0.05).sum(axis=1)
        np.testing.assert_array_equal(counts, direct)

    def test_boundary_inclusive(self):
        values = np.array([[0.0], [0.1]])
        counts = chebyshev_neighbor_counts(values, values, 0.1)
        assert counts.tolist() == [2, 2]

    def test_invalid_radius(self):
        with pytest.raises(ParameterError):
            chebyshev_neighbor_counts(np.zeros((3, 1)), np.zeros((3, 1)), 0.0)


class TestChunkedCounts:
    def test_empty_window_counts_zero(self):
        counts = chunked_neighbor_counts(np.empty((0, 2)), np.zeros((3, 2)), 0.1)
        assert counts.tolist() == [0, 0, 0]

    def test_boundary_inclusive_and_duplicates(self):
        values = np.array([[0.0], [0.1], [0.1], [0.3]])
        counts = chunked_neighbor_counts(values, np.array([[0.0], [0.2]]), 0.1)
        assert counts.tolist() == [3, 3]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=25),
       st.floats(min_value=0.01, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_chunked_counts_equal_kdtree(n_dims, n_values, n_queries, chunk_size,
                                     radius, seed):
    """The direct count equals the KD-tree count for any chunking, with
    negative coordinates, duplicates and queries outside the window."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.uniform(-1.0, 1.0, size=(n_values, n_dims)), 1)
    queries = np.concatenate([values[:n_queries // 2],
                              rng.uniform(-1.5, 1.5, size=(n_queries, n_dims))])
    expected = chebyshev_neighbor_counts(values, queries, radius) \
        if n_values else np.zeros(queries.shape[0], dtype=np.int64)
    np.testing.assert_array_equal(
        chunked_neighbor_counts(values, queries, radius), expected)
    np.testing.assert_array_equal(
        chunked_neighbor_counts(values, queries, radius,
                                chunk_size=chunk_size), expected)


class TestBruteForceD:
    SPEC = DistanceOutlierSpec(radius=0.01, count_threshold=10)

    def test_isolated_points_flagged(self, gaussian_window):
        mask = brute_force_distance_outliers(gaussian_window, self.SPEC)
        isolated = gaussian_window > 0.6
        assert mask[isolated].all()
        # The bulk of the cluster is never flagged.
        assert mask[~isolated].mean() < 0.02

    def test_kdtree_equals_naive(self, gaussian_window):
        fast = brute_force_distance_outliers(gaussian_window, self.SPEC)
        naive = brute_force_distance_outliers_naive(gaussian_window, self.SPEC)
        np.testing.assert_array_equal(fast, naive)

    def test_kdtree_equals_naive_2d(self, rng):
        values = np.concatenate([
            rng.normal(0.4, 0.02, size=(500, 2)),
            rng.uniform(0.7, 0.9, size=(5, 2)),
        ])
        spec = DistanceOutlierSpec(radius=0.02, count_threshold=5)
        np.testing.assert_array_equal(
            brute_force_distance_outliers(values, spec),
            brute_force_distance_outliers_naive(values, spec))

    def test_naive_chunking_boundaries(self, rng):
        values = rng.uniform(size=700)
        spec = DistanceOutlierSpec(radius=0.005, count_threshold=4)
        a = brute_force_distance_outliers_naive(values, spec, chunk_size=64)
        b = brute_force_distance_outliers_naive(values, spec, chunk_size=512)
        np.testing.assert_array_equal(a, b)

    def test_everything_outlier_with_huge_threshold(self, rng):
        values = rng.uniform(size=100)
        spec = DistanceOutlierSpec(radius=0.001, count_threshold=1e9)
        assert brute_force_distance_outliers(values, spec).all()

    def test_nothing_outlier_with_tiny_threshold(self, rng):
        values = rng.uniform(size=100)
        spec = DistanceOutlierSpec(radius=0.001, count_threshold=0.5)
        assert not brute_force_distance_outliers(values, spec).any()


class TestBruteForceM:
    SPEC = MDEFSpec(sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8)

    def test_gap_points_flagged(self, plateau_window):
        mask = brute_force_mdef_outliers(plateau_window, self.SPEC)
        gap = (plateau_window > 0.43) & (plateau_window < 0.49)
        assert mask[gap].mean() > 0.9
        assert mask[~gap].mean() < 0.01

    def test_min_mdef_floor_removes_plateau_edges(self, plateau_window):
        permissive = MDEFSpec(sampling_radius=0.08, counting_radius=0.01)
        loose = brute_force_mdef_outliers(plateau_window, permissive)
        strict = brute_force_mdef_outliers(plateau_window, self.SPEC)
        assert strict.sum() <= loose.sum()

    def test_gaussian_mixture_yields_nearly_no_outliers(self, rng):
        # The analysis behind PlateauSpec: steep Gaussian tails keep
        # sigma_MDEF above MDEF/3 nearly everywhere.
        from repro.data import make_mixture_stream
        values = make_mixture_stream(4_000, 1, rng=rng)
        mask = brute_force_mdef_outliers(values, self.SPEC)
        assert mask.mean() < 0.005

    def test_decisions_align_with_mask(self, plateau_window):
        mask, decisions = brute_force_mdef_outliers(
            plateau_window[:500], self.SPEC, return_decisions=True)
        assert len(decisions) == 500
        for flag, decision in zip(mask, decisions):
            assert flag == decision.is_outlier

    def test_queries_against_window_match_whole_window(self, plateau_window):
        window = plateau_window[:800].reshape(-1, 1)
        queries = window[-16:]
        counts = chebyshev_neighbor_counts(window, queries,
                                           self.SPEC.counting_radius)
        np.testing.assert_array_equal(
            mdef_outliers_against(window, queries, counts, self.SPEC),
            brute_force_mdef_outliers(window, self.SPEC)[-16:])

    def test_2d_gap_detection(self, rng):
        # Density-equalised plateaus (0.12^2 : 0.08^2 = 9 : 4) and a few
        # well-separated gap points that are not each other's neighbours.
        values = np.concatenate([
            rng.uniform(0.30, 0.42, size=(6300, 2)),
            rng.uniform(0.50, 0.58, size=(2800, 2)),
            np.array([[0.45, 0.45], [0.47, 0.47], [0.45, 0.47], [0.47, 0.45]]),
        ])
        mask = brute_force_mdef_outliers(values, self.SPEC)
        gap = (values[:, 0] > 0.43) & (values[:, 0] < 0.49) \
            & (values[:, 1] > 0.43) & (values[:, 1] < 0.49)
        assert mask[gap].mean() > 0.5
        assert mask[~gap].mean() < 0.01


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=5, max_size=80),
       st.floats(min_value=0.005, max_value=0.2),
       st.integers(min_value=1, max_value=20))
def test_bruteforce_d_implementations_agree(values, radius, threshold):
    spec = DistanceOutlierSpec(radius=radius, count_threshold=threshold)
    arr = np.array(values)
    np.testing.assert_array_equal(
        brute_force_distance_outliers(arr, spec),
        brute_force_distance_outliers_naive(arr, spec, chunk_size=7))
