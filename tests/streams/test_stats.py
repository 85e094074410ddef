"""Stream statistics (Figure 5 machinery)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.streams.stats import StreamSummary, summarize, summarize_columns


class TestSummarize:
    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.stddev == pytest.approx(np.std([1, 2, 3, 4]))

    def test_symmetric_data_has_zero_skew(self, rng):
        summary = summarize(rng.normal(0.5, 0.1, 50_000))
        assert summary.skew == pytest.approx(0.0, abs=0.05)

    def test_left_tail_gives_negative_skew(self, rng):
        values = np.concatenate([rng.normal(0.5, 0.01, 5_000),
                                 rng.normal(0.1, 0.01, 100)])
        assert summarize(values).skew < -3

    def test_constant_column_has_zero_skew(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize([0.7] * 400)
        assert summary.skew == 0.0
        assert summary.stddev == 0.0

    def test_as_row_order(self):
        summary = summarize([0.0, 1.0])
        assert summary.as_row() == (summary.minimum, summary.maximum,
                                    summary.mean, summary.median,
                                    summary.stddev, summary.skew)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            summarize([1.0, float("inf")])


class TestSummarizeColumns:
    def test_per_column(self, rng):
        data = np.stack([rng.uniform(0, 1, 100), rng.uniform(5, 6, 100)], axis=1)
        first, second = summarize_columns(data)
        assert first.maximum <= 1.0
        assert second.minimum >= 5.0

    def test_1d_input_is_single_column(self, rng):
        columns = summarize_columns(rng.uniform(size=10))
        assert len(columns) == 1
        assert isinstance(columns[0], StreamSummary)
