"""The shared per-node estimator state."""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.detectors._state import StreamModelState


def make_state(**overrides):
    defaults = dict(arrival_window=200, sample_size=20, n_dims=1,
                    rng=np.random.default_rng(0))
    defaults.update(overrides)
    return StreamModelState(**defaults)


class TestLifecycle:
    def test_no_model_before_min_arrivals(self):
        state = make_state(min_arrivals=10)
        for _ in range(9):
            state.observe(np.array([0.5]))
        assert state.model() is None
        state.observe(np.array([0.5]))
        assert state.model() is not None

    def test_default_min_arrivals(self):
        state = make_state(sample_size=80)
        assert state._min_arrivals == 10   # sample_size // 8

    def test_model_cached_between_refreshes(self, rng):
        state = make_state(model_refresh=50, min_arrivals=2)
        for _ in range(10):
            state.observe(rng.uniform(size=1))
        first = state.model()
        state.observe(rng.uniform(size=1))
        assert state.model() is first      # cached
        for _ in range(60):
            state.observe(rng.uniform(size=1))
        assert state.model() is not first  # refreshed

    def test_count_window_size_applied_on_rebuild(self, rng):
        state = make_state(model_refresh=1, min_arrivals=2)
        for _ in range(5):
            state.observe(rng.uniform(size=1))
        state.count_window_size = 12_345
        state.observe(rng.uniform(size=1))
        assert state.model().window_size == 12_345

    def test_observe_returns_changed_slots(self):
        state = make_state()
        changed = state.observe(np.array([0.4]))
        assert len(changed) == 20   # first arrival fills all slots

    def test_memory_words_positive(self, rng):
        state = make_state()
        for _ in range(50):
            state.observe(rng.uniform(size=1))
        assert state.memory_words() > 0

    def test_invalid_model_refresh(self):
        with pytest.raises(ParameterError):
            make_state(model_refresh=0)

    def test_model_reflects_recent_distribution(self, rng):
        state = make_state(arrival_window=100, sample_size=30,
                           min_arrivals=2, model_refresh=4)
        for _ in range(150):
            state.observe(rng.normal(0.2, 0.01, size=1))
        for _ in range(150):
            state.observe(rng.normal(0.8, 0.01, size=1))
        model = state.model()
        assert model.mean()[0] == pytest.approx(0.8, abs=0.05)


class TestChangeDrivenRefresh:
    def test_model_call_between_checks_is_pure_read(self):
        state = make_state(model_refresh=4, min_arrivals=2,
                           rng=np.random.default_rng(3))
        rng = np.random.default_rng(8)
        for _ in range(50):
            state.observe(rng.normal(0.5, 0.05, size=1))
        first = state.model()
        assert first is not None
        assert state.model() is first
        assert state.model() is first

    def test_clean_check_reuses_cached_object(self):
        """A due check with an unchanged sample and stable deviation
        hands back the same estimator object instead of rebuilding."""
        state = make_state(arrival_window=10_000, sample_size=20,
                           model_refresh=4, min_arrivals=2,
                           rng=np.random.default_rng(3))
        rng = np.random.default_rng(8)
        # Deep into the stream, acceptances are ~1/ts per slot and no
        # expiries occur, so short blocks rarely touch the sample.
        for _ in range(2_000):
            state.observe(rng.normal(0.5, 0.05, size=1))
        first = state.model()
        before = state.sample.mutation_count
        for _ in range(4):
            state.observe(rng.normal(0.5, 0.05, size=1))
        assert state.sample.mutation_count == before  # seed-verified quiet block
        assert state.model() is first

    def test_mutated_sample_forces_rebuild(self):
        state = make_state(arrival_window=50, sample_size=10,
                           model_refresh=4, min_arrivals=2,
                           rng=np.random.default_rng(3))
        rng = np.random.default_rng(8)
        for _ in range(60):
            state.observe(rng.normal(0.5, 0.05, size=1))
        first = state.model()
        # Push a full window through: every active element must turn
        # over, so the next due check cannot reuse the old model.
        for _ in range(50):
            state.observe(rng.normal(0.5, 0.05, size=1))
        assert state.model() is not first

    def test_count_window_resize_forces_rebuild(self):
        state = make_state(model_refresh=4, min_arrivals=2,
                           rng=np.random.default_rng(3))
        rng = np.random.default_rng(8)
        for _ in range(20):
            state.observe(rng.normal(0.5, 0.05, size=1))
        first = state.model()
        state.count_window_size = 999
        for _ in range(4):
            state.observe(rng.normal(0.5, 0.05, size=1))
        rebuilt = state.model()
        assert rebuilt is not first
        assert rebuilt.window_size == 999

    def test_invalid_bandwidth_tol(self):
        with pytest.raises(ParameterError):
            make_state(bandwidth_tol=-0.1)
