"""Stream plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.data.streams import StreamSet


class TestStreamSet:
    def test_properties(self, rng):
        streams = StreamSet.from_arrays([rng.uniform(size=(10, 2))
                                         for _ in range(3)])
        assert streams.n_sensors == 3
        assert streams.length == 10
        assert streams.n_dims == 2

    def test_1d_arrays_normalised(self, rng):
        streams = StreamSet.from_arrays([rng.uniform(size=10)])
        assert streams.n_dims == 1
        assert streams.streams[0].shape == (10, 1)

    def test_reading_lookup(self):
        streams = StreamSet.from_arrays([np.array([[1.0], [2.0]]),
                                         np.array([[3.0], [4.0]])])
        assert streams.reading(1, 0).tolist() == [3.0]
        assert streams.reading(0, 1).tolist() == [2.0]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            StreamSet.from_arrays([])

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError, match="length"):
            StreamSet.from_arrays([rng.uniform(size=5), rng.uniform(size=6)])

    def test_dims_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError, match="dimensionality"):
            StreamSet.from_arrays([rng.uniform(size=(5, 1)),
                                   rng.uniform(size=(5, 2))])

    @pytest.mark.parametrize("build", [StreamSet, StreamSet.from_arrays])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, build, bad):
        # A StreamSet built directly is checked like one from from_arrays.
        stream = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        stream[5, 0] = bad
        with pytest.raises(ParameterError, match=r"streams\[1\].*finite"):
            build((np.zeros((8, 1)), stream))
