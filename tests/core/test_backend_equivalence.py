"""The fused numpy kernels vs the frozen pre-fusion implementations.

The kernels claim *bit identity* with the historical estimator
expressions (``repro.core._kernels_numpy`` docstring lists the exact
IEEE-754-preserving rewrites).  This suite pins that claim against the
frozen references in :mod:`tests.core._reference_kernels` and exercises
the sorted-index candidate selection against brute force.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import _kernels_numpy
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.core.backend import backend_name
from repro.core.estimator import KernelDensityEstimator
from repro.core.indexes import SortedSampleIndex
from repro.core.kernels import EPANECHNIKOV, GAUSSIAN
from tests.core._reference_kernels import reference_pdf, reference_range_batch

ALL_KERNELS = [EPANECHNIKOV, GAUSSIAN]


def make_case(seed: int, n: int, m: int, d: int, bw: float):
    rng = np.random.default_rng(seed)
    centers = rng.random((n, d))
    queries = rng.random((m, d))
    bandwidths = np.full(d, bw)
    est = KernelDensityEstimator(centers, bandwidths=bandwidths)
    return rng, centers, queries, bandwidths, est


# ---------------------------------------------------------------------------
# fused numpy kernels: bit identity with the frozen references
# ---------------------------------------------------------------------------

class TestNumpyBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_range_probability_identical(self, kernel, d):
        rng = np.random.default_rng(10 + d)
        centers = rng.random((57, d))
        queries = rng.random((33, d))
        bandwidths = np.full(d, 0.07)
        est = KernelDensityEstimator(centers, bandwidths=bandwidths,
                                     kernel=kernel)
        got = np.asarray(est.range_probability(queries - 0.03, queries + 0.03))
        want = reference_range_batch(kernel, queries - 0.03, queries + 0.03,
                                     centers, bandwidths)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_pdf_identical(self, kernel, d):
        rng = np.random.default_rng(20 + d)
        centers = rng.random((41, d))
        queries = rng.random((29, d))
        bandwidths = np.full(d, 0.11)
        est = KernelDensityEstimator(centers, bandwidths=bandwidths,
                                     kernel=kernel)
        assert np.array_equal(est.pdf(queries),
                              reference_pdf(kernel, queries, centers,
                                            bandwidths))

    @pytest.mark.parametrize("query, kernel, d, n_centers", [
        ("range", EPANECHNIKOV, 1, 1_024),
        ("range", EPANECHNIKOV, 2, 1_024),
        ("range", EPANECHNIKOV, 3, 512),
        ("range", GAUSSIAN, 1, 1_024),
        ("pdf", EPANECHNIKOV, 1, 1_024),
    ], ids=lambda v: getattr(v, "name", v))
    def test_multi_block_shapes_identical(self, query, kernel, d, n_centers):
        # 2048 queries span several BLOCK_CELLS query blocks, so the
        # block seams are checked, not just one block's arithmetic.
        n_queries = 2_048
        assert n_queries >= 2 * (BLOCK_CELLS // n_centers)
        rng = np.random.default_rng(60 + d)
        centers = rng.random((n_centers, d))
        queries = rng.random((n_queries, d))
        bandwidths = np.full(d, 0.05)
        est = KernelDensityEstimator(centers, bandwidths=bandwidths,
                                     kernel=kernel)
        if query == "range":
            got = np.asarray(est.range_probability(queries - 0.02,
                                                   queries + 0.02))
            want = reference_range_batch(kernel, queries - 0.02,
                                         queries + 0.02, centers, bandwidths)
        else:
            got = est.pdf(queries)
            want = reference_pdf(kernel, queries, centers, bandwidths)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bw", [1e-12, 1e12])
    def test_degenerate_bandwidths_identical(self, bw):
        # Near-delta and near-flat models must follow the references
        # through the same under/overflow, not around it.
        rng, centers, queries, bandwidths, est = make_case(3, 40, 16, 2, bw)
        got = np.asarray(est.range_probability(queries - 0.1, queries + 0.1))
        want = reference_range_batch(est.kernel, queries - 0.1, queries + 0.1,
                                     centers, bandwidths)
        assert np.array_equal(got, want)
        assert np.array_equal(est.pdf(queries),
                              reference_pdf(est.kernel, queries, centers,
                                            bandwidths))

    def test_interval_probabilities_identical(self):
        rng, centers, _, bandwidths, est = make_case(4, 64, 0, 1, 0.05)
        edges = np.linspace(0.0, 1.0, 21)
        got = est.interval_probabilities(edges)
        z = (edges[None, :] - centers[:, None, 0]) / bandwidths[0]
        want = np.diff(est.kernel.cdf(z), axis=1).mean(axis=0)
        assert np.array_equal(got, np.clip(want, 0.0, 1.0))

    def test_empty_query_batch(self):
        _, _, _, _, est = make_case(5, 30, 0, 2, 0.05)
        empty = np.empty((0, 2))
        assert est.range_probability(empty, empty).shape == (0,)
        assert est.pdf(empty).shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=25),
           st.integers(min_value=1, max_value=3),
           st.floats(min_value=1e-6, max_value=10.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=2 ** 16),
           st.booleans())
    def test_property_identical(self, n, m, d, bw, seed, gaussian):
        kernel = GAUSSIAN if gaussian else EPANECHNIKOV
        rng = np.random.default_rng(seed)
        centers = rng.random((n, d))
        queries = rng.random((m, d))
        bandwidths = np.full(d, bw)
        est = KernelDensityEstimator(centers, bandwidths=bandwidths,
                                     kernel=kernel)
        widths = rng.uniform(0.0, 0.2, size=(m, d))
        got = np.asarray(est.range_probability(queries - widths,
                                               queries + widths))
        want = reference_range_batch(kernel, queries - widths,
                                     queries + widths, centers, bandwidths)
        assert np.array_equal(got, want)
        assert np.array_equal(est.pdf(queries),
                              reference_pdf(kernel, queries, centers,
                                            bandwidths))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=25),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1, 7, 64, 500, 262_144]),
           st.integers(min_value=0, max_value=2 ** 16),
           st.booleans())
    def test_stacked_rows_equal_one_model_calls(self, n_models, n, m, d,
                                                cells, seed, gaussian):
        """Every model's rows of the stacked Eq. 5 kernel equal its own
        single-model call, whatever the stream and query blocking."""
        kernel = GAUSSIAN if gaussian else EPANECHNIKOV
        rng = np.random.default_rng(seed)
        centers = rng.random((n_models, n, d))
        queries = rng.random((n_models, m, d))
        widths = rng.uniform(0.0, 0.2, size=(n_models, m, d))
        inv_bw = 1.0 / rng.uniform(0.01, 0.5, size=(n_models, d))
        got = np.empty((n_models, m))
        _kernels_numpy.range_batch_stacked(kernel, queries - widths,
                                           queries + widths, centers, inv_bw,
                                           got, cells)
        for model in range(n_models):
            want = np.empty(m)
            _kernels_numpy.range_batch(kernel, queries[model] - widths[model],
                                       queries[model] + widths[model],
                                       centers[model], inv_bw[model], want,
                                       BLOCK_CELLS)
            assert np.array_equal(got[model], want)


# ---------------------------------------------------------------------------
# sorted-index candidates vs brute force
# ---------------------------------------------------------------------------

class TestSortedIndexFastPath:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=80),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2 ** 16))
    def test_candidates_match_brute_force(self, n, d, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((n, d))
        index = SortedSampleIndex(points)
        low = rng.uniform(-0.2, 0.8, d)
        high = low + rng.uniform(0.0, 1.5, d)
        candidates = index.candidates(low, high)
        brute = np.nonzero(
            np.all((points >= low) & (points <= high), axis=1))[0]
        assert np.array_equal(np.sort(candidates), brute)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_single_nd_query_matches_dense(self, kernel):
        rng = np.random.default_rng(77)
        centers = rng.random((120, 2))
        est = KernelDensityEstimator(centers, bandwidths=np.full(2, 0.02),
                                     kernel=kernel)
        dense = KernelDensityEstimator(centers, bandwidths=np.full(2, 0.02),
                                       kernel=kernel)
        for low, high in [((0.3, 0.3), (0.35, 0.4)),
                          ((0.0, 0.0), (0.05, 0.05)),
                          ((0.9, 0.1), (0.95, 0.2))]:
            lo, hi = np.asarray(low), np.asarray(high)
            got = est.range_probability(lo, hi)
            want = float(dense.range_probability(lo[None, :], hi[None, :])[0])
            assert got == want


def test_backend_name_is_numpy():
    # The benchmark fingerprint records this name.
    assert backend_name() == "numpy"
