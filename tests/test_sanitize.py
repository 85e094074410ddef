"""The REPRO_SANITIZE runtime invariant checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import _sanitize
from repro._sanitize import SanitizeError
from repro.core.estimator import KernelDensityEstimator
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.engine.core import DetectorEngine
from repro.network.codec import (decode_model_state, encode_model_state,
                                 quantization_step)
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch


class TestSwitch:
    def test_env_parsing(self, monkeypatch):
        for value, expected in (("1", True), ("true", True), ("on", True),
                                ("0", False), ("false", False), ("", False),
                                ("off", False), ("no", False)):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert _sanitize._env_active() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert _sanitize._env_active() is False

    def test_enabled_context_restores_previous_state(self):
        previous = _sanitize.ACTIVE
        try:
            _sanitize.deactivate()
            with _sanitize.enabled():
                assert _sanitize.ACTIVE
            assert not _sanitize.ACTIVE
        finally:
            if previous:
                _sanitize.activate()

    def test_activate_deactivate(self):
        previous = _sanitize.ACTIVE
        try:
            _sanitize.activate()
            assert _sanitize.ACTIVE
            _sanitize.deactivate()
            assert not _sanitize.ACTIVE
        finally:
            if previous:
                _sanitize.activate()

    def test_error_is_catchable_both_ways(self):
        from repro._exceptions import ReproError
        assert issubclass(SanitizeError, ReproError)
        assert issubclass(SanitizeError, AssertionError)


class TestProbabilityChecks:
    def test_valid_probabilities_pass(self):
        _sanitize.check_probabilities(np.array([0.0, 0.5, 1.0]), label="t")
        # Round-off a hair outside [0, 1] is legitimate cancellation.
        _sanitize.check_probabilities(np.array([-1e-12, 1.0 + 1e-12]), label="t")

    def test_out_of_range_raises(self):
        with pytest.raises(SanitizeError, match="outside"):
            _sanitize.check_probabilities(np.array([0.2, 1.5]), label="t")
        with pytest.raises(SanitizeError, match="outside"):
            _sanitize.check_probabilities(-0.01, label="t")

    def test_non_finite_raises(self):
        with pytest.raises(SanitizeError, match="non-finite"):
            _sanitize.check_probabilities(np.array([np.nan]), label="t")

    def test_mass_sum_above_one_raises(self):
        with pytest.raises(SanitizeError, match="total mass"):
            _sanitize.check_mass(np.array([0.7, 0.7]), label="t")

    def test_valid_mass_passes(self):
        _sanitize.check_mass(np.array([0.25, 0.25, 0.5]), label="t")


class TestBandwidthChecks:
    def test_positive_bandwidths_pass(self):
        _sanitize.check_bandwidths(np.array([0.01, 0.02]), label="t")

    @pytest.mark.parametrize("bad", [[0.0], [-0.1], [np.nan], []])
    def test_degenerate_bandwidths_raise(self, bad):
        with pytest.raises(SanitizeError):
            _sanitize.check_bandwidths(np.array(bad, dtype=float), label="t")


class TestChainSampleChecks:
    def make_sample(self, rng, n=500):
        sample = ChainSample(64, 16, rng=rng)
        sample.offer_many(rng.uniform(size=(n, 1)))
        return sample

    def test_healthy_sample_passes(self, rng):
        _sanitize.check_chain_sample(self.make_sample(rng))

    def test_offer_paths_pass_with_checks_live(self, rng):
        with _sanitize.enabled():
            sample = ChainSample(32, 8, rng=rng)
            for value in rng.uniform(size=40):
                sample.offer(value)
            sample.offer_many(rng.uniform(size=(200, 1)))

    def test_corrupted_successor_raises(self, rng):
        sample = self.make_sample(rng)
        slot = int(np.flatnonzero(sample._chain_ts[:, 0] >= 0)[0])
        newest = sample._chain_ts[slot, sample._chain_len[slot] - 1]
        sample._succ_ts[0, slot] = newest         # due in the past
        with pytest.raises(SanitizeError, match="successor"):
            _sanitize.check_chain_sample(sample)

    def test_expired_item_raises(self, rng):
        sample = self.make_sample(rng)
        slot = int(np.flatnonzero(sample._chain_ts[:, 0] >= 0)[0])
        # Expired a full window ago but still held (-1 would mean empty).
        sample._chain_ts[slot, 0] = sample.timestamp - 2 * sample.window_size
        with pytest.raises(SanitizeError, match="window"):
            _sanitize.check_chain_sample(sample)

    def test_mutation_count_regression_raises(self, rng):
        sample = self.make_sample(rng)
        with pytest.raises(SanitizeError, match="mutation_count"):
            _sanitize.check_chain_sample(
                sample, mutations_before=sample.mutation_count + 1)


class TestEHSketchChecks:
    """A scalar stream's sketch, a one-lane store."""

    def make_sketch(self, rng, n=300):
        sketch = MultiDimVarianceSketch(128, 1, epsilon=0.2)
        sketch.insert_many(rng.uniform(size=n))
        return sketch

    def test_healthy_sketch_passes(self, rng):
        _sanitize.check_variance_sketch(self.make_sketch(rng))

    def test_insert_paths_pass_with_checks_live(self, rng):
        with _sanitize.enabled():
            sketch = MultiDimVarianceSketch(64, 1, epsilon=0.2)
            for value in rng.uniform(size=100):
                sketch.insert(float(value))
            sketch.insert_many(rng.uniform(size=200))

    def test_zero_count_bucket_raises(self, rng):
        sketch = self.make_sketch(rng)
        sketch._counts[0, sketch._first[0]] = 0
        with pytest.raises(SanitizeError, match="count"):
            _sanitize.check_variance_sketch(sketch)

    def test_unordered_buckets_raise(self, rng):
        sketch = self.make_sketch(rng)
        if sketch._end - sketch._first[0] < 2:
            pytest.skip("sketch compressed to a single bucket")
        sketch._ts[0, sketch._end - 1] = sketch._ts[0, sketch._first[0]]
        with pytest.raises(SanitizeError, match="increasing"):
            _sanitize.check_variance_sketch(sketch)

    def test_negative_m2_raises(self, rng):
        sketch = self.make_sketch(rng)
        sketch._m2s[0, sketch._end - 1] = -1.0
        with pytest.raises(SanitizeError, match="m2"):
            _sanitize.check_variance_sketch(sketch)


class TestEngineChecks:
    """The engine's structure-of-arrays stream state lives in one
    ``ChainSample`` and one ``MultiDimVarianceSketch``, which check
    themselves inside every ``ingest`` while the sanitizer is live."""

    def make_engine(self, rng, spec=None, n_dims=1):
        spec = spec or DistanceOutlierSpec(radius=0.5, count_threshold=3)
        engine = DetectorEngine(4, spec, window_size=30, sample_size=10,
                                n_dims=n_dims, warmup=5, model_refresh=8,
                                rng=np.random.default_rng(1))
        engine.ingest(rng.normal(size=(90, 4, n_dims)))
        return engine

    @pytest.mark.parametrize("mdef", [False, True])
    def test_ingest_passes_with_checks_live(self, rng, mdef):
        spec = MDEFSpec(sampling_radius=1.0, counting_radius=0.25) \
            if mdef else None
        with _sanitize.enabled():
            engine = self.make_engine(rng, spec, n_dims=2 if mdef else 1)
            for size in (1, 7, 32):
                engine.ingest(rng.normal(size=(size, 4, engine._n_dims)))

    def test_corrupted_lane_raises(self, rng):
        engine = self.make_engine(rng)
        # One lane per (stream, dimension): 1-d stream 1 is lane 1.
        sketch = engine._sketch
        sketch._counts[1, sketch._first[1]] = 0
        with pytest.raises(SanitizeError, match=r"dim 1\].*count"):
            _sanitize.check_variance_sketch(engine._sketch)

    def test_corrupted_lane_trips_ingest(self, rng):
        engine = self.make_engine(rng)
        engine._sketch._m2s[2, engine._sketch._end - 1] = -1.0
        with _sanitize.enabled(), pytest.raises(SanitizeError, match="m2"):
            engine.ingest(rng.normal(size=(1, 4)))

    def test_expired_head_raises(self, rng):
        engine = self.make_engine(rng)
        engine._sample._chain_ts[2 * 10 + 3, 0] = engine.tick - 40  # window is 30
        with pytest.raises(SanitizeError, match="stream 2 slot 3.*outside window"):
            _sanitize.check_chain_sample(engine._sample)

    def test_late_successor_raises(self, rng):
        engine = self.make_engine(rng)
        engine._sample._succ_ts[0, 0] = engine.tick + 10_000
        with pytest.raises(SanitizeError, match="successor"):
            _sanitize.check_chain_sample(engine._sample)

    @pytest.mark.parametrize("mdef", [False, True])
    def test_bad_bandwidths_trip_every_model_check(self, rng, mdef,
                                                   monkeypatch):
        spec = MDEFSpec(sampling_radius=1.0, counting_radius=0.25) \
            if mdef else None
        engine = self.make_engine(rng, spec, n_dims=2 if mdef else 1)
        monkeypatch.setattr("repro.engine.core.model_bandwidths",
                            lambda std, *args: np.zeros_like(std))
        with _sanitize.enabled(), \
                pytest.raises(SanitizeError, match="DetectorEngine"):
            engine.ingest(rng.normal(size=(40, 4, engine._n_dims)))


class TestMDEFTableChecks:
    """An MDEF engine's cell table checks itself after every merge."""

    @staticmethod
    def make_table(rng):
        engine = DetectorEngine(
            3, MDEFSpec(sampling_radius=0.3, counting_radius=0.05),
            window_size=30, sample_size=10, n_dims=2, warmup=5,
            model_refresh=8, rng=np.random.default_rng(1))
        with _sanitize.enabled():
            engine.ingest(rng.uniform(size=(40, 3, 2)))
        assert engine._cells.keys.size > 1
        return engine._cells

    def test_filled_table_passes(self, rng):
        _sanitize.check_mdef_table(self.make_table(rng))

    @pytest.mark.parametrize("corrupt, match", [
        (lambda t: setattr(t, "keys", t.keys[::-1].copy()), "sentinel"),
        (lambda t: t.keys.__setitem__(1, t.keys[0]), "increasing"),
        (lambda t: setattr(t, "counts", t.counts[1:]), "populations"),
        (lambda t: t.counts.__setitem__(0, -1.0), "negative"),
        (lambda t: t.counts.__setitem__(0, np.inf), "finite"),
    ])
    def test_corrupted_table_raises(self, rng, corrupt, match):
        table = self.make_table(rng)
        corrupt(table)
        with pytest.raises(SanitizeError, match=match):
            _sanitize.check_mdef_table(table)


class TestCodecChecks:
    def test_roundtrip_passes_with_checks_live(self, rng):
        sample = rng.uniform(size=(32, 2))
        stddev = rng.uniform(0.01, 0.1, size=2)
        with _sanitize.enabled():
            payload = encode_model_state(sample, stddev, 4096)
        decoded, _, _ = decode_model_state(payload)
        assert decoded.shape == sample.shape

    def test_broken_decoder_raises(self, rng):
        sample = rng.uniform(size=(8, 1))
        stddev = np.array([0.05])
        payload = encode_model_state(sample, stddev, 100)

        def bad_decoder(_payload):
            return sample + 0.25, stddev, 100

        with pytest.raises(SanitizeError, match="round-trip"):
            _sanitize.check_codec_roundtrip(
                payload, sample, stddev, 100, bad_decoder,
                step=quantization_step())

    def test_wrong_window_raises(self, rng):
        sample = rng.uniform(size=(8, 1))
        stddev = np.array([0.05])
        payload = encode_model_state(sample, stddev, 100)

        def bad_decoder(_payload):
            return sample, stddev, 99

        with pytest.raises(SanitizeError, match="window_size"):
            _sanitize.check_codec_roundtrip(
                payload, sample, stddev, 100, bad_decoder,
                step=quantization_step())


class TestEstimatorIntegration:
    def test_queries_pass_with_checks_live(self, gaussian_window):
        with _sanitize.enabled():
            model = KernelDensityEstimator.from_window(gaussian_window)
            assert 0.0 <= model.range_probability(0.35, 0.45) <= 1.0
            assert model.interval_probabilities(
                np.linspace(0.0, 1.0, 9)).shape == (8,)
            assert model.grid_probabilities(16).shape == (16,)

    def test_degenerate_bandwidth_caught_at_construction(self):
        # A constant window has zero deviation; Scott's rule floors the
        # bandwidth, so construction must still yield a positive width
        # under the sanitizer rather than dividing by zero later.
        with _sanitize.enabled():
            model = KernelDensityEstimator(np.full((50, 1), 0.5))
            assert float(model.bandwidths[0]) > 0.0
