"""Bandwidth rules (paper Section 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._exceptions import ParameterError
from repro.core.bandwidth import (
    MIN_BANDWIDTH,
    scott_bandwidths,
    silverman_bandwidths,
)


class TestScott:
    def test_matches_paper_formula_1d(self):
        # B = sqrt(5) * sigma * |R|^(-1/5) for d = 1.
        expected = np.sqrt(5) * 0.05 * 500 ** (-0.2)
        assert scott_bandwidths(0.05, 500)[0] == pytest.approx(expected)

    def test_matches_paper_formula_2d(self):
        sigma = np.array([0.05, 0.1])
        expected = np.sqrt(5) * sigma * 500 ** (-1 / 6)
        np.testing.assert_allclose(scott_bandwidths(sigma, 500), expected)

    def test_scalar_stddev_accepted(self):
        assert scott_bandwidths(0.1, 100).shape == (1,)

    def test_shrinks_with_sample_size(self):
        small = scott_bandwidths(0.1, 100)[0]
        large = scott_bandwidths(0.1, 10_000)[0]
        assert large < small

    def test_zero_stddev_floors_at_minimum(self):
        assert scott_bandwidths(0.0, 100)[0] == MIN_BANDWIDTH

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="dimension"):
            scott_bandwidths(np.array([0.1, 0.2]), 100, n_dims=3)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ParameterError):
            scott_bandwidths(-0.1, 100)

    def test_nonpositive_sample_size_rejected(self):
        with pytest.raises(ParameterError):
            scott_bandwidths(0.1, 0)

    def test_matrix_stddev_rejected(self):
        with pytest.raises(ParameterError):
            scott_bandwidths(np.ones((2, 2)), 100)

    def test_stacked_stddev_is_rowwise(self):
        """With ``n_dims``, a ``(..., d)`` stack gives each row's own
        bandwidths, and one bad entry anywhere rejects the stack."""
        sigma = np.array([[0.1, 0.0], [2.5, 1e-7], [0.3, 0.3]])
        stacked = scott_bandwidths(sigma, 77, n_dims=2)
        assert stacked.tolist() == [scott_bandwidths(row, 77).tolist()
                                    for row in sigma]
        sigma[1, 0] = -1.0
        with pytest.raises(ParameterError, match="non-negative"):
            scott_bandwidths(sigma, 77, n_dims=2)


class TestSilverman:
    def test_narrower_than_paper_scott_in_1d(self):
        # Silverman's (4/3)^(1/5) factor is far below sqrt(5).
        assert silverman_bandwidths(0.1, 500)[0] < scott_bandwidths(0.1, 500)[0]

    def test_positive_and_floored(self):
        assert silverman_bandwidths(0.0, 10)[0] == MIN_BANDWIDTH


@given(st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=1, max_value=10**6))
def test_scott_always_positive(sigma, n):
    values = scott_bandwidths(sigma, n)
    assert (values >= MIN_BANDWIDTH).all()
    assert np.isfinite(values).all()


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
       st.integers(min_value=2, max_value=10**5))
def test_scott_monotone_in_sigma(sigmas, n):
    sigma = np.array(sigmas)
    one = scott_bandwidths(sigma, n)
    two = scott_bandwidths(sigma * 2, n)
    assert (two >= one - 1e-12).all()
