"""Windowed moments from the summaries a node already keeps (Section 9).

Mean and variance come from the EH variance sketch, a one-lane
``MultiDimVarianceSketch``; skew comes from the chain sample, as the
distribution summary of the window (``examples/order_statistics.py``).
The samples here keep a fifth of the window.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro._exceptions import ParameterError
from repro.streams.sampling import ChainSample
from repro.streams.stats import summarize
from repro.streams.variance import MultiDimVarianceSketch


def sketch_of(data, window_size):
    sketch = MultiDimVarianceSketch(window_size, 1)
    for value in data:
        sketch.insert(float(value))
    return sketch


def sample_skew(data, window_size, rng):
    sample = ChainSample(window_size, window_size // 5, rng=rng)
    sample.offer_many(np.asarray(data))
    return summarize(sample.values()[:, 0]).skew


class TestAccuracy:
    def test_mean_and_variance(self, rng):
        data = rng.normal(0.4, 0.05, 4_000)
        sketch = sketch_of(data, 1_000)
        window = data[-1_000:]
        assert sketch.mean()[0] == pytest.approx(window.mean(), abs=0.01)
        assert sketch.std()[0] ** 2 == pytest.approx(window.var(), rel=0.15)

    def test_symmetric_data_near_zero_skew(self, rng):
        data = rng.normal(0.5, 0.05, 6_000)
        assert abs(sample_skew(data, 2_000, rng)) < 0.4

    def test_strong_negative_skew_detected(self, rng):
        # An engine-like stream: tight band plus a low excursion.
        data = np.concatenate([rng.normal(0.42, 0.005, 3_800),
                               rng.normal(0.06, 0.02, 80),
                               rng.normal(0.42, 0.005, 120)])
        skew = sample_skew(data, 4_000, rng)
        exact = scipy_stats.skew(data[-4_000:])
        assert exact < -3
        assert skew == pytest.approx(exact, rel=0.5)
        assert skew < -2

    def test_positive_skew_detected(self, rng):
        data = np.concatenate([rng.normal(0.2, 0.01, 3_000),
                               rng.uniform(0.6, 1.0, 60)])
        rng.shuffle(data)
        assert sample_skew(data, 3_060, rng) > 1.0

    def test_skew_tracks_window_not_history(self, rng):
        """After the skewed segment expires, skewness returns near zero."""
        data = np.concatenate([
            rng.normal(0.42, 0.005, 500),
            rng.normal(0.06, 0.02, 50),      # excursion
            rng.normal(0.42, 0.005, 1_500),  # 3 windows of recovery
        ])
        assert abs(sample_skew(data, 500, rng)) < 0.6


class TestResources:
    def test_memory_bounded(self, rng):
        sketch = sketch_of(rng.normal(0.5, 0.1, 12_000), 4_096)
        n_buckets = int(sketch.snapshot_state()["lane_len"][0])
        assert sketch.memory_words() == 4 * n_buckets
        assert sketch.max_memory_words() < 4 * 25 * 12 * 2

    def test_constant_stream(self, rng):
        sketch = sketch_of([0.7] * 400, 100)
        assert sketch.std()[0] ** 2 == pytest.approx(0.0, abs=1e-12)
        assert int(sketch.snapshot_state()["lane_len"][0]) < 30
        assert sample_skew([0.7] * 400, 100, rng) == 0.0


class TestAPI:
    def test_query_before_insert_rejected(self, rng):
        sketch = MultiDimVarianceSketch(10, 1)
        for query in (sketch.mean, sketch.std):
            with pytest.raises(ParameterError):
                query()
        with pytest.raises(ParameterError):
            summarize(ChainSample(10, 2, rng=rng).values()[:, 0])

    def test_timestamps_must_increase(self):
        sketch = MultiDimVarianceSketch(10, 1)
        sketch.insert(0.5, timestamp=2)
        with pytest.raises(ParameterError):
            sketch.insert(0.5, timestamp=2)

    def test_nonfinite_rejected(self, rng):
        with pytest.raises(ParameterError):
            MultiDimVarianceSketch(10, 1).insert(float("inf"))
        with pytest.raises(ParameterError):
            ChainSample(10, 2, rng=rng).offer(float("inf"))
