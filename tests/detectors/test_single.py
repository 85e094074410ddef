"""The batteries-included single-sensor detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.snapshot import encode_snapshot

DIST = DistanceOutlierSpec(radius=0.01, count_threshold=5)
MDEF = MDEFSpec(sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8)


class TestDistanceMode:
    def test_flags_spikes_after_warmup(self, rng):
        detector = OnlineOutlierDetector(500, 50, DIST, rng=rng)
        stream = rng.normal(0.4, 0.02, 1_200)
        spikes = {700, 900, 1_100}
        for tick in spikes:
            stream[tick] = 0.85
        flagged = []
        for tick, value in enumerate(stream):
            decision = detector.process(value)
            if decision is not None and decision.is_outlier:
                flagged.append(tick)
        assert spikes <= set(flagged)
        assert len(set(flagged) - spikes) < 10
        assert detector.readings_flagged == len(flagged)
        assert detector.readings_seen == 1_200

    def test_returns_none_during_warmup(self, rng):
        detector = OnlineOutlierDetector(100, 10, DIST, rng=rng)
        for _ in range(100):
            assert detector.process(0.4) is None
        assert not detector.is_warm
        assert detector.process(0.4) is not None
        assert detector.is_warm

    def test_custom_warmup(self, rng):
        detector = OnlineOutlierDetector(100, 10, DIST, warmup=5, rng=rng)
        outputs = [detector.process(rng.normal(0.4, 0.02)) for _ in range(8)]
        assert outputs[4] is None
        assert outputs[6] is not None

    def test_decision_carries_count(self, rng):
        detector = OnlineOutlierDetector(200, 40, DIST, warmup=200, rng=rng)
        decision = None
        for value in rng.normal(0.4, 0.02, 300):
            decision = detector.process(value)
        assert decision is not None
        assert decision.neighbor_count > DIST.count_threshold

    def test_memory_footprint_small(self, rng):
        detector = OnlineOutlierDetector(2_000, 100, DIST, rng=rng)
        for value in rng.normal(0.4, 0.02, 3_000):
            detector.process(value)
        # Far below the 2000-word window it summarises.
        assert detector.memory_words() < 1_000


class TestMDEFMode:
    def test_flags_gap_values(self, plateau_window):
        detector = OnlineOutlierDetector(
            1_500, 150, MDEF, warmup=1_500,
            rng=np.random.default_rng(0))
        flagged_gap = checked_gap = 0
        for tick, value in enumerate(plateau_window):
            decision = detector.process(value)
            if decision is None:
                continue
            if 0.43 < value < 0.49:
                checked_gap += 1
                flagged_gap += bool(decision.is_outlier)
        assert checked_gap > 0
        assert flagged_gap / checked_gap > 0.5

    def test_mdef_decision_type(self, plateau_window):
        from repro.core.mdef import MDEFDecision
        detector = OnlineOutlierDetector(
            500, 60, MDEF, warmup=500, rng=np.random.default_rng(1))
        decision = None
        for value in plateau_window[:700]:
            decision = detector.process(value)
        assert isinstance(decision, MDEFDecision)


class TestValidation:
    def test_bad_spec_type(self):
        with pytest.raises(ParameterError, match="spec must be"):
            OnlineOutlierDetector(100, 10, spec="distance")

    def test_sample_larger_than_window(self):
        with pytest.raises(ParameterError):
            OnlineOutlierDetector(10, 20, DIST)

    def test_negative_warmup(self):
        with pytest.raises(ParameterError):
            OnlineOutlierDetector(100, 10, DIST, warmup=-1)

    def test_2d_readings(self, rng):
        detector = OnlineOutlierDetector(
            300, 60, DistanceOutlierSpec(radius=0.02, count_threshold=5),
            n_dims=2, warmup=300, rng=rng)
        for _ in range(300):
            detector.process(rng.normal(0.4, 0.02, size=2))
        decision = detector.process([0.9, 0.9])
        assert decision.is_outlier


class TestProcessMany:
    """The batched ingestion path reproduces the scalar decisions."""

    @staticmethod
    def _compare(spec, stream, splits, window=500, sample=50, warmup=None,
                 model_refresh=32):
        scalar, batched = (
            OnlineOutlierDetector(window, sample, spec, warmup=warmup,
                                  model_refresh=model_refresh,
                                  rng=np.random.default_rng(11))
            for _ in range(2))
        scalar_decisions = [scalar.process(v) for v in stream]
        batched_decisions = []
        start = 0
        for size in splits:
            batched_decisions.extend(batched.process_many(stream[start:start + size]))
            start += size
        assert start == len(stream)
        assert len(scalar_decisions) == len(batched_decisions)
        for a, b in zip(scalar_decisions, batched_decisions):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.is_outlier == b.is_outlier
        assert scalar.readings_seen == batched.readings_seen
        assert scalar.readings_flagged == batched.readings_flagged
        assert encode_snapshot(scalar) == encode_snapshot(batched)
        return scalar_decisions, batched_decisions

    def test_distance_mode_identical_flags(self, rng):
        stream = rng.normal(0.4, 0.02, 1_200)
        for tick in (700, 900, 1_100):
            stream[tick] = 0.85
        self._compare(DIST, stream, [3, 498, 37, 400, 262])

    def test_mdef_mode_identical_flags(self, rng):
        stream = rng.normal(0.4, 0.02, 900)
        stream[750] = 0.9
        self._compare(MDEF, stream, [900])

    def test_neighbor_counts_close(self, rng):
        """Counts come from the batched range query instead of the
        sorted-1d fast path; they agree to floating-point noise."""
        stream = rng.normal(0.4, 0.02, 800)
        scalar_decisions, batched_decisions = self._compare(
            DIST, stream, [800], window=300, sample=30)
        for a, b in zip(scalar_decisions, batched_decisions):
            if a is not None:
                assert a.neighbor_count == pytest.approx(
                    b.neighbor_count, abs=1e-9)

    def test_single_element_blocks_match_scalar(self, rng):
        stream = rng.normal(0.4, 0.02, 400)
        self._compare(DIST, stream, [1] * 400, window=150, sample=15)

    def test_short_warmup_leaves_scalar_state(self, rng):
        # With warmup < |W| the count window still grows after warm-up;
        # a block ending between model checks must leave it where
        # process() would, not at its value at the last check.
        stream = rng.normal(0.4, 0.02, 13)
        self._compare(DIST, stream, [13], window=24, sample=8, warmup=5,
                      model_refresh=8)

    def test_wrong_shape_rejected(self, rng):
        detector = OnlineOutlierDetector(100, 10, DIST, rng=rng)
        with pytest.raises(ParameterError):
            detector.process_many(np.zeros((5, 2)))
