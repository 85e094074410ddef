"""Chain sampling over sliding windows (paper Section 5)."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from repro import _sanitize
from repro._exceptions import ParameterError
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.engine.snapshot import decode_snapshot, encode_snapshot
from repro.streams.sampling import (
    ChainSample, ReservoirSample, draw_successor, draw_successors)
from tests.streams._reference_chain import ReferenceChainSample


def _slots(hits):
    """A one-stream ``offer_many`` mask as per-arrival slot tuples."""
    (stream_hits,) = hits
    return [tuple(np.flatnonzero(row).tolist()) for row in stream_hits]


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
        {"window_size": 2**32, "sample_size": 4},
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
        for i in range(20_000):
            sample.offer([float(i)])
            # One snapshot per window: a slot's element persists for up
            # to |W| arrivals, so closer snapshots would count it again
            # and inflate the statistic.
            if i >= window_size and i % window_size == 0:
                ages = (i - sample.values()[:, 0]).astype(int)
                np.add.at(counts, ages, 1)
        assert stats.chisquare(counts).pvalue > 1e-3


class TestSuccessorDraw:
    """Successor timestamps are counter-based: a pure function of the
    stream's key, the slot and the storing arrival's timestamp."""

    WINDOW = 50

    def _offset_counts(self, offsets):
        counts = np.bincount(offsets, minlength=self.WINDOW + 1)
        assert counts.size == self.WINDOW + 1 and counts[0] == 0
        return counts[1:]

    def test_offsets_uniform_across_keys_slots_and_timestamps(self):
        keys = np.random.default_rng(0).integers(
            2**64, dtype=np.uint64, size=200).tolist()
        offsets = [draw_successor(key, k % 16, ts, self.WINDOW) - ts
                   for k, key in enumerate(keys) for ts in range(2000)]
        assert stats.chisquare(self._offset_counts(offsets)).pvalue > 1e-3

    @pytest.mark.parametrize("window", [1, 2, 50, 2**31, 2**32 - 1])
    def test_array_draw_is_the_scalar_draw(self, window):
        """The uint64 draw, its multiply-high split into 32-bit halves,
        equals the Python-int draw at the edges of keys, slots,
        timestamps and windows."""
        keys = [0, 1, 2**63, 2**64 - 1, 0x243F6A8885A308D3]
        slots = [0, 1, 59, 2**20]
        stamps = [0, 1, 999, 2**62 - 1, 2**62, 2**62 + 12345]
        grid = np.array([(k, s, t) for k in keys for s in slots
                         for t in stamps], dtype=object)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = draw_successors(grid[:, 0].astype(np.uint64),
                                    grid[:, 1].astype(np.int64),
                                    grid[:, 2].astype(np.int64), window)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [draw_successor(int(k), int(s), int(t),
                                                 window)
                                  for k, s, t in grid]

    def test_offsets_uniform_along_one_chain(self):
        key, ts, offsets = 0x243F6A8885A308D3, 0, []
        for _ in range(20_000):
            successor = draw_successor(key, 3, ts, self.WINDOW)
            offsets.append(successor - ts)
            ts = successor
        assert stats.chisquare(self._offset_counts(offsets)).pvalue > 1e-3

    def test_independent_of_grouping_and_stream_count(self):
        """A stream's state -- successors included -- is the same fed
        one at a time in its own sample or in blocks of any size
        beside other streams."""
        data = np.random.default_rng(4).normal(size=(400, 3, 1))
        alone = [ChainSample(30, 6, rng=np.random.default_rng(10 + s))
                 for s in range(3)]
        for s, sample in enumerate(alone):
            for value in data[:, s]:
                sample.offer(value)
        for splits in ([400], [1, 17, 64, 3, 315], [200, 200]):
            shared = ChainSample(30, 6, rng=[np.random.default_rng(10 + s)
                                             for s in range(3)])
            start = 0
            for size in splits:
                shared.offer_many(data[start:start + size])
                start += size
            for s, sample in enumerate(alone):
                copy = ChainSample.restore_state(shared.snapshot_state(s))
                assert encode_snapshot(copy) == encode_snapshot(sample)


def _assert_same_state(sample, ref):
    """The array sample holds the frozen reference's chains, heads,
    successors and counters, and snapshots to its bytes."""
    n_streams = ref.n_streams
    assert sample._chain_ts[:, 0].tolist() == ref._head_ts.reshape(-1).tolist()
    assert sample._succ_ts.tolist() == ref._succ_ts.tolist()
    assert sample.mutation_counts.tolist() == ref._mutations
    assert sample._evictions.tolist() == ref._evictions
    assert sample.timestamp == ref._timestamp
    state, expected = sample.snapshot_state(), ref.snapshot_state()
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        if key != "rngs":
            np.testing.assert_array_equal(state[key], value, err_msg=key)
    assert pickle.dumps(state) == pickle.dumps(expected)
    if n_streams > 1:
        stream = n_streams // 2
        assert pickle.dumps(sample.snapshot_state(stream)) == \
            pickle.dumps(ref.snapshot_state(stream))
    _sanitize.check_chain_sample(sample)


#: Span lengths; "split" is one tick past the block that
#: ``BLOCK_CELLS`` lets one span carry.
_SPANS = st.sampled_from([1, 1, 1, 2, 3, 5, 17, 32, 64, "split"])


@settings(max_examples=60, deadline=None)
@given(n_streams=st.sampled_from([1, 2, 17, 64]),
       slots=st.integers(1, 60),
       window=st.integers(1, 64),
       n_dims=st.sampled_from([1, 2]),
       calls=st.lists(st.tuples(_SPANS, st.sampled_from([0, 0, 0, 1, 3, 70]),
                                st.booleans()), min_size=1, max_size=10),
       restore_after=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
@example(n_streams=64, slots=60, window=3, n_dims=1,
         calls=[(1, 0, False), ("split", 0, False), (1, 0, False),
                (1, 5, False), ("split", 0, False)],
         restore_after=2, seed=7)
@example(n_streams=1, slots=60, window=2, n_dims=2,
         calls=[(1, 4, True), (1, 0, True), (32, 0, False), (1, 0, True),
                (5, 0, True), (64, 1, False)],
         restore_after=3, seed=11)
@example(n_streams=1, slots=1, window=64, n_dims=1,
         calls=[(1, 0, False), (3, 70, False), (3, 0, False), (2, 0, False)],
         restore_after=10, seed=0)
def test_array_walk_equals_frozen_reference(n_streams, slots, window, n_dims,
                                            calls, restore_after, seed):
    """``offer_many``'s array rounds and ``offer_detailed``'s row edits
    keep the frozen list/dict walk's hits, chains, successors and
    counters after every call: through warm-up, timestamp gaps, short
    windows that grow chains past the arrays' width, blocks split by
    ``BLOCK_CELLS``, one-stream calls of both kinds mixed, and a
    restore in mid-run; the padded arrays raise no numpy warning."""
    rng = np.random.default_rng(seed)
    sample = ChainSample(window, slots, n_dims=n_dims,
                         rng=[np.random.default_rng([seed, s])
                              for s in range(n_streams)])
    ref = ReferenceChainSample.restore_state(sample.snapshot_state())
    span = max(1, BLOCK_CELLS // (n_streams * slots))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for index, (ticks, gap, detailed) in enumerate(calls):
            if ticks == "split":
                ticks = span + 1 if span < 100 else 64
            start = sample.timestamp + 1 + gap
            if detailed and n_streams == 1:
                # A one-stream sample takes single readings too.
                for t in range(start, start + ticks):
                    value = rng.normal(size=n_dims)
                    assert sample.offer_detailed(value, t) == \
                        ref.offer_detailed(value, t)
            else:
                block = rng.normal(size=(ticks, n_streams, n_dims))
                hits = sample.offer_many(block, start)
                np.testing.assert_array_equal(
                    hits, ref.offer_many(block, start))
            if index == restore_after:
                sample = decode_snapshot(encode_snapshot(sample))
            _assert_same_state(sample, ref)


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
            batched_changed.extend(
                _slots(batched.offer_many(stream[start:start + size])))
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
        changed_one = _slots(one.offer_many(stream))
        changed_many = []
        for start in range(0, 256, 17):
            changed_many.extend(_slots(many.offer_many(stream[start:start + 17])))
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
        assert _slots(sample.offer_many(np.empty((0, 1)))) == []
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
