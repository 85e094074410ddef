"""Snapshot codec: framed round-trips, property-tested bit identity.

The codec's contract is stronger than "restores without error": for
every registered class, snapshotting mid-stream and continuing on the
restored copy must be *bit-identical* to never having snapshotted.
Bit identity is asserted through :func:`encode_snapshot` itself -- two
objects whose encoded snapshots are byte-equal hold identical state,
including RNG positions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import SnapshotError
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.snapshot import (
    REGISTERED_CLASSES,
    SNAPSHOT_MAGIC,
    SNAPSHOT_SCHEMA_VERSION,
    decode_snapshot,
    encode_snapshot,
    registered_class,
)
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch
from repro.streams.window import SlidingWindow

SPECS = {
    "d3": DistanceOutlierSpec(radius=0.5, count_threshold=3),
    "mgdd": MDEFSpec(sampling_radius=1.0, counting_radius=0.25),
}


def snap_equal(a, b) -> bool:
    """Byte-level state equality through the codec itself."""
    return encode_snapshot(a) == encode_snapshot(b)


class TestFraming:
    def test_round_trip_restores_equal_state(self):
        window = SlidingWindow(8)
        for value in np.arange(5.0):
            window.append(value)
        restored = decode_snapshot(encode_snapshot(window))
        assert isinstance(restored, SlidingWindow)
        assert snap_equal(window, restored)

    def test_header_fields(self):
        blob = encode_snapshot(SlidingWindow(4))
        assert blob[:4] == SNAPSHOT_MAGIC
        assert int.from_bytes(blob[4:6], "big") == SNAPSHOT_SCHEMA_VERSION

    def test_truncated_header_rejected(self):
        with pytest.raises(SnapshotError, match="truncated"):
            decode_snapshot(b"RS")

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_snapshot(SlidingWindow(4)))
        blob[:4] = b"XXXX"
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(bytes(blob))

    def test_unknown_schema_version_rejected(self):
        blob = bytearray(encode_snapshot(SlidingWindow(4)))
        blob[4:6] = (SNAPSHOT_SCHEMA_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(SnapshotError, match="version"):
            decode_snapshot(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = encode_snapshot(SlidingWindow(4))
        with pytest.raises(SnapshotError, match="payload truncated"):
            decode_snapshot(blob[:-3])

    def test_corrupt_payload_rejected(self):
        blob = bytearray(encode_snapshot(SlidingWindow(4)))
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotError, match="checksum"):
            decode_snapshot(bytes(blob))

    def test_unregistered_class_refused_on_encode(self):
        class Rogue:
            def snapshot_state(self):
                return {}

        with pytest.raises(SnapshotError, match="unregistered"):
            encode_snapshot(Rogue())

    def test_unregistered_name_refused_on_decode(self):
        with pytest.raises(SnapshotError, match="not registered"):
            registered_class("Rogue")

    def test_registry_names_are_unique(self):
        names = [cls.__name__ for cls in REGISTERED_CLASSES]
        assert len(names) == len(set(names))


class TestChainSampleRoundTrip:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 120), split=st.floats(0.0, 1.0),
           window=st.integers(2, 40), sample=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_mid_stream_checkpoint_is_invisible(self, seed, n, split,
                                                window, sample):
        """snapshot/restore at any offer boundary leaves the sample --
        including its RNG position -- bit-identical to an uninterrupted
        run over the same values."""
        data_rng = np.random.default_rng(seed)
        values = data_rng.normal(size=(n, 1))
        k = int(round(split * n))
        control = ChainSample(window, sample,
                              rng=np.random.default_rng(seed + 1))
        control.offer_many(values)
        subject = ChainSample(window, sample,
                              rng=np.random.default_rng(seed + 1))
        subject.offer_many(values[:k])
        subject = decode_snapshot(encode_snapshot(subject))
        subject.offer_many(values[k:])
        assert snap_equal(control, subject)
        assert np.array_equal(control.values(), subject.values())


class TestEHSketchRoundTrip:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 200), split=st.floats(0.0, 1.0),
           window=st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_mid_stream_checkpoint_is_invisible(self, seed, n, split,
                                                window):
        data_rng = np.random.default_rng(seed)
        values = data_rng.normal(size=n)
        k = int(round(split * n))
        control = MultiDimVarianceSketch(window, 1)
        control.insert_many(values)
        subject = MultiDimVarianceSketch(window, 1)
        subject.insert_many(values[:k])
        subject = decode_snapshot(encode_snapshot(subject))
        subject.insert_many(values[k:])
        assert snap_equal(control, subject)
        assert control.std() == subject.std()


class TestDetectorRoundTrip:
    @pytest.mark.parametrize("algorithm", sorted(SPECS))
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 90), split=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_mid_process_many_checkpoint_is_invisible(self, algorithm,
                                                      seed, n, split):
        """The ISSUE's hardest boundary: a checkpoint splitting one
        ``process_many`` call in two must not change a single decision
        or one bit of detector state."""
        spec = SPECS[algorithm]
        data_rng = np.random.default_rng(seed)
        values = data_rng.normal(size=(n, 1))
        values[::17] += 6.0   # guarantee some outliers past warm-up
        k = int(round(split * n))

        def build():
            return OnlineOutlierDetector(
                30, 12, spec, warmup=8, model_refresh=8,
                rng=np.random.default_rng(seed + 1))

        control = build()
        expected = control.process_many(values)
        subject = build()
        first = subject.process_many(values[:k])
        subject = decode_snapshot(encode_snapshot(subject))
        second = subject.process_many(values[k:])
        assert snap_equal(control, subject)
        flags = [d is not None and d.is_outlier for d in first + second]
        assert flags == [d is not None and d.is_outlier for d in expected]
