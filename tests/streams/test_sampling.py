"""Chain sampling over sliding windows (paper Section 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import ParameterError
from repro.streams.sampling import ChainSample, ReservoirSample


class TestChainSampleBasics:
    def test_fills_after_first_arrival(self, rng):
        sample = ChainSample(100, 16, rng=rng)
        assert len(sample) == 0
        sample.offer([0.5])
        assert len(sample) == 16   # first value populates every slot

    def test_values_shape(self, rng):
        sample = ChainSample(100, 8, n_dims=2, rng=rng)
        for _ in range(10):
            sample.offer(rng.uniform(size=2))
        assert sample.values().shape == (8, 2)

    def test_empty_before_any_arrival(self, rng):
        assert ChainSample(10, 4, rng=rng).values().shape == (0, 1)

    def test_offer_detailed_reports_replaced_slots(self, rng):
        sample = ChainSample(50, 8, rng=rng)
        slots = sample.offer_detailed([0.3])
        assert sorted(slots) == list(range(8))   # first arrival fills all

    def test_offer_bool_consistent_with_detailed(self, rng):
        a = ChainSample(50, 8, rng=np.random.default_rng(3))
        b = ChainSample(50, 8, rng=np.random.default_rng(3))
        for i in range(200):
            value = [i / 200]
            assert a.offer(value) == bool(b.offer_detailed(value))

    def test_timestamps_must_increase(self, rng):
        sample = ChainSample(10, 2, rng=rng)
        sample.offer([0.1], timestamp=5)
        with pytest.raises(ParameterError):
            sample.offer([0.2], timestamp=5)

    def test_wrong_dimension_rejected(self, rng):
        with pytest.raises(ParameterError):
            ChainSample(10, 2, n_dims=2, rng=rng).offer([0.1])

    @pytest.mark.parametrize("kwargs", [
        {"window_size": 0, "sample_size": 4},
        {"window_size": 10, "sample_size": 0},
        {"window_size": 10, "sample_size": 4, "n_dims": 0},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ParameterError):
            ChainSample(**kwargs)


class TestWindowInvariant:
    """The active sample elements always come from the current window."""

    def test_sample_values_always_in_window(self, rng):
        window_size = 64
        sample = ChainSample(window_size, 16, rng=rng)
        history: "list[float]" = []
        for i in range(1_000):
            value = float(rng.uniform())
            history.append(value)
            sample.offer([value])
            current = set(history[-window_size:])
            assert all(v in current for v in sample.values()[:, 0])

    def test_old_regime_fully_purged(self, rng):
        sample = ChainSample(50, 32, rng=rng)
        for _ in range(100):
            sample.offer([rng.uniform(0.0, 0.1)])
        for _ in range(60):   # more than one full window of the new regime
            sample.offer([rng.uniform(0.9, 1.0)])
        assert (sample.values()[:, 0] >= 0.9).all()


class TestUniformity:
    def test_sample_mean_tracks_window_mean(self, rng):
        """On a drifting stream the sample tracks the *window*, and the
        positions sampled within the window are uniform on average."""
        window_size, slots = 200, 64
        sample = ChainSample(window_size, slots, rng=rng)
        stream = np.linspace(0.0, 1.0, 2_000)   # steadily increasing
        for value in stream:
            sample.offer([value])
        window = stream[-window_size:]
        assert sample.values().mean() == pytest.approx(window.mean(), abs=0.02)

    def test_inclusion_rate_matches_theory(self):
        """At steady state each slot replaces at rate 1/W, so the chance
        an arrival enters any of |R| slots is ~ |R|/W (for |R| << W)."""
        rng = np.random.default_rng(0)
        window_size, slots, n = 500, 25, 20_000
        sample = ChainSample(window_size, slots, rng=rng)
        included = 0
        for i in range(n):
            hit = sample.offer([rng.uniform()])
            if i >= window_size:
                included += bool(hit)
        rate = included / (n - window_size)
        assert rate == pytest.approx(slots / window_size, rel=0.15)

    def test_position_distribution_uniform_over_window(self):
        """Repeatedly snapshotting the sample, each window position is
        equally likely to be sampled (chain sampling's guarantee)."""
        rng = np.random.default_rng(1)
        window_size, slots = 50, 10
        sample = ChainSample(window_size, slots, rng=rng)
        counts = np.zeros(window_size)
        history: "list[int]" = []
        for i in range(20_000):
            history.append(i)
            sample.offer([float(i)])
            if i >= window_size and i % 7 == 0:
                ages = i - sample.values()[:, 0]
                for age in ages.astype(int):
                    counts[age] += 1
        frequencies = counts / counts.sum()
        # Every age bucket within ~3x of uniform.
        assert frequencies.max() < 3.0 / window_size
        assert frequencies.min() > 1.0 / (3.0 * window_size)


class TestResourceAccounting:
    def test_chain_lengths_positive_after_arrivals(self, rng):
        sample = ChainSample(100, 8, rng=rng)
        for _ in range(300):
            sample.offer([rng.uniform()])
        lengths = sample.chain_lengths()
        assert (lengths >= 1).all()
        # Expected chain length is O(1); generous bound.
        assert lengths.mean() < 5

    def test_memory_words_formula(self, rng):
        sample = ChainSample(100, 8, n_dims=2, rng=rng)
        for _ in range(50):
            sample.offer(rng.uniform(size=2))
        stored = int(sample.chain_lengths().sum())
        assert sample.memory_words() == stored * 3 + 8


class TestOfferMany:
    """The batched ingestion path is bit-identical to the scalar one."""

    @staticmethod
    def _drive(window_size, slots, n_dims, stream, splits):
        scalar = ChainSample(window_size, slots, n_dims=n_dims,
                             rng=np.random.default_rng(77))
        batched = ChainSample(window_size, slots, n_dims=n_dims,
                              rng=np.random.default_rng(77))
        scalar_changed = [scalar.offer_detailed(value) for value in stream]
        batched_changed = []
        start = 0
        for size in splits:
            batched_changed.extend(batched.offer_many(stream[start:start + size]))
            start += size
        assert start == len(stream)
        return scalar, batched, scalar_changed, batched_changed

    def test_bit_identical_1d(self, rng):
        stream = rng.normal(0.4, 0.05, 400).reshape(-1, 1)
        scalar, batched, changed_a, changed_b = self._drive(
            50, 12, 1, stream, [3, 57, 1, 200, 139])
        assert changed_a == changed_b
        np.testing.assert_array_equal(scalar.values(), batched.values())
        np.testing.assert_array_equal(scalar.chain_lengths(),
                                      batched.chain_lengths())

    def test_bit_identical_2d(self, rng):
        stream = rng.uniform(size=(300, 2))
        scalar, batched, changed_a, changed_b = self._drive(
            40, 8, 2, stream, [300])
        assert changed_a == changed_b
        np.testing.assert_array_equal(scalar.values(), batched.values())

    def test_grouping_does_not_matter(self, rng):
        """Identical results whether the block is one chunk or many."""
        stream = rng.normal(0.5, 0.1, 256).reshape(-1, 1)
        one = ChainSample(30, 6, rng=np.random.default_rng(5))
        many = ChainSample(30, 6, rng=np.random.default_rng(5))
        changed_one = one.offer_many(stream)
        changed_many = []
        for start in range(0, 256, 17):
            changed_many.extend(many.offer_many(stream[start:start + 17]))
        assert changed_one == changed_many
        np.testing.assert_array_equal(one.values(), many.values())

    def test_reused_buffer_offers_match_fresh_arrays(self):
        """A caller may overwrite its buffer after each offer: the slots
        hold copies, so offering through one buffer equals offering
        fresh arrays and equals ``offer_many``."""
        stream = np.array([0.1, 0.2, 0.0, 0.3, 0.4, 0.5]).reshape(-1, 1)
        reused = ChainSample(4, 4, rng=np.random.default_rng(3))
        fresh = ChainSample(4, 4, rng=np.random.default_rng(3))
        batched = ChainSample(4, 4, rng=np.random.default_rng(3))
        buf = np.empty(1)
        for value in stream:
            buf[:] = value
            reused.offer(buf)
            fresh.offer(value.copy())
        batched.offer_many(stream)
        np.testing.assert_array_equal(reused.values(), fresh.values())
        np.testing.assert_array_equal(reused.values(), batched.values())
        assert len(np.unique(reused.values())) > 1

    def test_empty_block_is_noop(self, rng):
        sample = ChainSample(20, 4, rng=rng)
        sample.offer([0.5])
        before = sample.values().copy()
        assert sample.offer_many(np.empty((0, 1))) == []
        np.testing.assert_array_equal(sample.values(), before)

    def test_construction_leaves_rng_untouched(self):
        """Substream seeding must not advance the caller's generator
        (callers draw their data streams from the same generator)."""
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        ChainSample(100, 16, rng=a)
        np.testing.assert_array_equal(a.random(32), b.random(32))

    def test_has_active(self, rng):
        sample = ChainSample(20, 4, rng=rng)
        assert not sample.has_active()
        sample.offer([0.5])
        assert sample.has_active()

    def test_wrong_shape_rejected(self, rng):
        with pytest.raises(ParameterError):
            ChainSample(10, 2, rng=rng).offer_many(np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            ChainSample(10, 2, n_dims=2, rng=rng).offer_many(np.zeros(3))

    def test_timestamps_must_increase(self, rng):
        sample = ChainSample(10, 2, rng=rng)
        sample.offer([0.1], timestamp=5)
        with pytest.raises(ParameterError):
            sample.offer_many(np.zeros((2, 1)), start_timestamp=5)


class TestReservoir:
    def test_fills_then_stays_fixed_size(self, rng):
        reservoir = ReservoirSample(10, rng=rng)
        for i in range(100):
            reservoir.offer([float(i)])
        assert len(reservoir) == 10
        assert reservoir.seen == 100

    def test_uniform_over_entire_stream(self):
        rng = np.random.default_rng(2)
        hits = np.zeros(100)
        for _ in range(400):
            reservoir = ReservoirSample(10, rng=rng)
            for i in range(100):
                reservoir.offer([float(i)])
            for value in reservoir.values()[:, 0]:
                hits[int(value)] += 1
        frequencies = hits / hits.sum()
        assert frequencies.max() < 2.5 / 100
        assert frequencies.min() > 1 / (2.5 * 100)

    def test_keeps_stale_values_after_drift(self, rng):
        """The failure mode that motivates chain sampling: a reservoir
        keeps resurrecting pre-drift values."""
        reservoir = ReservoirSample(32, rng=rng)
        chain = ChainSample(100, 32, rng=rng)
        for _ in range(1_000):
            value = [float(rng.uniform(0.0, 0.1))]
            reservoir.offer(value)
            chain.offer(value)
        for _ in range(500):
            value = [float(rng.uniform(0.9, 1.0))]
            reservoir.offer(value)
            chain.offer(value)
        assert (chain.values() >= 0.9).all()
        assert (reservoir.values() < 0.5).any()

    def test_wrong_dimension_rejected(self, rng):
        with pytest.raises(ParameterError):
            ReservoirSample(4, n_dims=2, rng=rng).offer([0.1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=16),
       st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=120))
def test_chain_sample_never_leaves_window(window_size, slots, values):
    sample = ChainSample(window_size, slots, rng=np.random.default_rng(0))
    for i, value in enumerate(values):
        sample.offer([value])
        active = sample.values()[:, 0]
        window = values[max(0, i + 1 - window_size):i + 1]
        assert all(v in window for v in active)


class TestNewestActiveTimestamp:
    def test_empty_sample_is_minus_one(self):
        sample = ChainSample(10, 4, rng=np.random.default_rng(0))
        assert sample.newest_active_timestamp() == -1

    def test_tracks_latest_acceptance(self):
        sample = ChainSample(10, 4, rng=np.random.default_rng(1))
        for i in range(50):
            sample.offer([0.5])
            newest = sample.newest_active_timestamp()
            # Staleness is bounded by the window: an active element
            # older than |W| arrivals would have expired.
            assert 0 <= newest <= sample.timestamp
            assert sample.timestamp - newest < sample.window_size

    def test_matches_batched_path(self):
        scalar = ChainSample(16, 8, rng=np.random.default_rng(2))
        batched = ChainSample(16, 8, rng=np.random.default_rng(2))
        values = np.random.default_rng(3).uniform(size=(120, 1))
        for value in values:
            scalar.offer(value)
        batched.offer_many(values)
        assert scalar.newest_active_timestamp() == \
            batched.newest_active_timestamp()
