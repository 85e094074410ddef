"""Timed instrumentation sites: failures are still recorded, and each
range-query path feeds the latency histogram."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs


def _query_latency_count() -> int:
    """Observations in the ``estimator.range_query.latency`` histogram."""
    histograms = obs.metrics().snapshot()["histograms"]
    return histograms["estimator.range_query.latency"]["count"]


class TestInstrumentedSitesOnException:
    """The manual perf_counter sites must record in finally."""

    def test_failed_rebuild_still_charged(self, monkeypatch):
        from repro.detectors import _state as state_module
        from repro.detectors._state import StreamModelState

        state = StreamModelState(64, 16, 1, model_refresh=1,
                                 rng=np.random.default_rng(0))
        state.observe_many(np.random.default_rng(1).uniform(
            0.2, 0.8, size=(50, 1)))

        def _broken(*args, **kwargs):
            raise RuntimeError("constructor down")

        monkeypatch.setattr(state_module, "KernelDensityEstimator", _broken)
        with obs.enabled():
            with pytest.raises(RuntimeError):
                state.model()
        assert obs.tracer().counts_by_kind().get("estimator.rebuild") == 1

    def test_failed_sorted_query_still_charged(self, monkeypatch):
        from repro.core.estimator import KernelDensityEstimator

        rng = np.random.default_rng(2)
        model = KernelDensityEstimator(
            rng.uniform(0.2, 0.8, size=(64, 1)), window_size=64)

        def _broken(self, low, high):
            raise RuntimeError("query down")

        monkeypatch.setattr(KernelDensityEstimator,
                            "_range_probability_sorted_1d", _broken)
        with obs.enabled():
            with pytest.raises(RuntimeError):
                model.range_probability(0.2, 0.6)
        assert _query_latency_count() == 1


class TestKernelPhaseCoverage:
    """Each range-query path observes the latency histogram once."""

    def test_range_batch_phase(self):
        from repro.core.estimator import KernelDensityEstimator

        rng = np.random.default_rng(3)
        model = KernelDensityEstimator(rng.uniform(0.2, 0.8, size=(64, 1)))
        lows = rng.uniform(0.2, 0.5, size=(8, 1))
        with obs.enabled():
            model.range_probability(lows, lows + 0.1)
        assert _query_latency_count() == 1

    def test_sorted_nd_phase(self):
        from repro.core.estimator import KernelDensityEstimator

        rng = np.random.default_rng(4)
        model = KernelDensityEstimator(rng.uniform(0.2, 0.8, size=(64, 2)),
                                       bandwidths=np.full(2, 0.01))
        with obs.enabled():
            model.range_probability(np.array([0.3, 0.3]),
                                    np.array([0.32, 0.32]))
        assert _query_latency_count() == 1
