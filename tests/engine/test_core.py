"""DetectorEngine: the cross-stream engine equals per-stream detectors.

The engine's contract is that ``ingest`` is *observationally* the same
as one :class:`~repro.detectors.single.OnlineOutlierDetector` per stream
fed one reading at a time through ``process``, with per-stream
generators spawned (or seeded) exactly as the engine derives them:

* the detection matrix equals the per-stream decisions, bit for bit;
* ``last_flags`` names the same ``(tick, stream)`` pairs with the
  ``model_seq`` the stream's detector reports at that reading (the
  version the reading was scored with, even when the model is rebuilt
  later in the same call), and the same ``score`` and ``threshold``
  exactly (the scalar path's single-box range query and the engine's
  stacked one evaluate one Eq. 5 expression);
* a snapshot round trip at any call boundary is invisible.

Batch splits range from one tick per call to calls that straddle the
warm-up end, the model-check cadence and the EH compress cadence.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import ParameterError
from repro._rng import resolve_rng
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.synthetic import make_plateau_streams
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.engine.snapshot import decode_snapshot, encode_snapshot
from repro.engine.supervisor import SupervisedEngine
from repro.network.faults import EngineCrash, FaultPlan
from repro.streams.sampling import ChainSample

#: name -> (spec, n_dims)
CONFIGS = {
    "distance-1d": (DistanceOutlierSpec(radius=0.5, count_threshold=3), 1),
    "distance-2d": (DistanceOutlierSpec(radius=0.6, count_threshold=3), 2),
    "mdef-2d": (MDEFSpec(sampling_radius=1.0, counting_radius=0.25), 2),
}

WINDOW = 24
SAMPLE = 8
REFRESH = 8


def _readings(seed: int, n_ticks: int, n_streams: int,
              n_dims: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_ticks, n_streams, n_dims))
    data[rng.random((n_ticks, n_streams)) < 0.06] += 6.0
    return data


def _engine(config: str, n_streams: int, seed: int, use_seeds: bool,
            warmup: "int | None") -> DetectorEngine:
    spec, n_dims = CONFIGS[config]
    kwargs: "dict[str, Any]" = {}
    if use_seeds:
        kwargs["stream_seeds"] = [seed * 31 + s for s in range(n_streams)]
    else:
        kwargs["rng"] = np.random.default_rng(seed)
    return DetectorEngine(n_streams, spec, window_size=WINDOW,
                          sample_size=SAMPLE, n_dims=n_dims, warmup=warmup,
                          model_refresh=REFRESH, **kwargs)


def _reference(config: str, n_streams: int, seed: int, use_seeds: bool,
               warmup: "int | None") -> "list[OnlineOutlierDetector]":
    """Per-stream detectors drawing the substreams the engine draws."""
    spec, n_dims = CONFIGS[config]
    if use_seeds:
        rngs = [resolve_rng(None, seed * 31 + s) for s in range(n_streams)]
    else:
        rngs = np.random.default_rng(seed).spawn(n_streams)
    return [OnlineOutlierDetector(WINDOW, SAMPLE, spec, n_dims=n_dims,
                                  warmup=warmup, model_refresh=REFRESH,
                                  rng=rng)
            for rng in rngs]


def _reference_call(detectors: "list[OnlineOutlierDetector]",
                    chunk: np.ndarray, base: int,
                    ) -> "tuple[np.ndarray, list[dict[str, Any]]]":
    """One engine call's worth of scalar ``process`` loops."""
    m = chunk.shape[0]
    flags = np.zeros((m, len(detectors)), dtype=bool)
    details = []
    for stream, detector in enumerate(detectors):
        spec = detector.spec
        hits = []
        for offset in range(m):
            decision = detector.process(chunk[offset, stream])
            if decision is None or not decision.is_outlier:
                continue
            flags[offset, stream] = True
            if isinstance(spec, DistanceOutlierSpec):
                score = float(decision.neighbor_count)
                threshold = float(spec.count_threshold)
            else:
                score = float(decision.mdef)
                threshold = float(spec.k_sigma * decision.sigma_mdef)
            hits.append((offset, score, threshold, detector.model_seq))
        for offset, score, threshold, model_seq in hits:
            details.append({"stream": stream, "tick": base + offset,
                            "score": score, "threshold": threshold,
                            "model_seq": model_seq})
    details.sort(key=lambda f: (f["tick"], f["stream"]))
    return flags, details


def _splits(draw: Any, n_ticks: int) -> "list[int]":
    sizes = []
    left = n_ticks
    while left:
        size = min(left, draw(st.sampled_from(
            [1, 1, 2, 3, 5, 7, 8, 9, 16, 23, 24, 25, 33, 64])))
        sizes.append(size)
        left -= size
    return sizes


@st.composite
def scenarios(draw: Any) -> "dict[str, Any]":
    n_ticks = draw(st.integers(1, 90))
    return {
        "config": draw(st.sampled_from(sorted(CONFIGS))),
        "n_streams": draw(st.integers(1, 9)),
        "seed": draw(st.integers(0, 2**16)),
        "use_seeds": draw(st.booleans()),
        "warmup": draw(st.sampled_from([None, 0, 5, 13])),
        "n_ticks": n_ticks,
        "splits": _splits(draw, n_ticks),
        "snapshot_at": draw(st.integers(0, 40)),
    }


class TestEngineEqualsPerStreamDetectors:
    @given(sc=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_ingest_matches_scalar_loops_and_snapshots_are_invisible(
            self, sc: "dict[str, Any]") -> None:
        spec, n_dims = CONFIGS[sc["config"]]
        args = (sc["config"], sc["n_streams"], sc["seed"], sc["use_seeds"],
                sc["warmup"])
        data = _readings(sc["seed"], sc["n_ticks"], sc["n_streams"], n_dims)
        if n_dims == 1 and sc["seed"] % 2:
            data = data[:, :, 0]     # the (m, n_streams) scalar layout
        engine = _engine(*args)
        reference = _reference(*args)
        snapshot_at = sc["snapshot_at"] % len(sc["splits"])
        start = 0
        for call, size in enumerate(sc["splits"]):
            if call == snapshot_at:
                engine = decode_snapshot(encode_snapshot(engine))
            chunk = data[start:start + size]
            flags = engine.ingest(chunk)
            expected, details = _reference_call(
                reference, np.asarray(chunk).reshape(size, sc["n_streams"],
                                                     n_dims), start)
            assert np.array_equal(flags, expected), (call, start)
            got = engine.last_flags
            assert [(f["tick"], f["stream"], f["model_seq"]) for f in got] \
                == [(f["tick"], f["stream"], f["model_seq"])
                    for f in details], (call, start)
            for flag, want in zip(got, details):
                assert flag["score"] == want["score"]
                assert flag["threshold"] == want["threshold"]
            start += size
        assert engine.tick == sc["n_ticks"]


class TestMDEFTableSnapshot:
    """An MDEF engine's cell-population tables are not snapshotted: a
    restore starts them cold and changes nothing observable."""

    def test_restore_from_warm_tables_is_invisible(self):
        n_streams, window = 3, 600
        data = np.stack(make_plateau_streams(n_streams, 900, seed=1), axis=1)
        engine = DetectorEngine(n_streams, MDEFSpec(0.08, 0.01),
                                window_size=window, sample_size=100,
                                model_refresh=16,
                                rng=np.random.default_rng(1))
        engine.ingest(data[:window + 50])
        table = engine._cells
        assert set((table.keys[:-1] // table._grid).tolist()) \
            == set(range(n_streams))
        restored = decode_snapshot(encode_snapshot(engine))
        assert restored._cells.keys.size == 1
        start, flagged = window + 50, 0
        for size in (1, 9, 2, 64, 31, 1, 92, 50):
            chunk = data[start:start + size]
            flags = engine.ingest(chunk)
            assert np.array_equal(restored.ingest(chunk), flags)
            assert restored.last_flags == engine.last_flags
            assert encode_snapshot(restored) == encode_snapshot(engine)
            flagged += int(flags.sum())
            start += size
        assert start == 900 and flagged > 0


class TestCrossStreamMDEF:
    """The engine's one-pass MDEF decision over all streams.

    With ``MDEFSpec(0.16, 0.02)`` the grid has 25 cells per dimension
    over ``[0, 1]``: a reading inside it sees up to 9 cells per
    dimension, one near 0 or 1 fewer, and one outside ``[0, 1]`` only
    the nearest cell, so one call mixes many cell counts, streams
    rebuild their models at different checks, and a restore midway
    starts the cell table cold."""

    SPEC = MDEFSpec(0.16, 0.02)
    SPLITS = (1, 7, 64, 2, 33, 1, 1, 40, 51)

    @staticmethod
    def _readings(seed: int, n_ticks: int, n_streams: int) -> np.ndarray:
        """Each stream clusters tightly at a corner of ``[0, 1]^2``,
        with strays around it (often outside the square) and a few far
        ones."""
        rng = np.random.default_rng(seed)
        shape = (n_ticks, n_streams, 2)
        corner = np.where(rng.random((1, n_streams, 2)) < 0.5, 0.03, 0.97)
        data = corner + rng.normal(0.0, 0.01, shape)
        stray = rng.random(shape) < 0.1
        data[stray] += rng.uniform(-0.25, 0.25, int(stray.sum()))
        far = rng.random(shape) < 0.02
        data[far] = rng.uniform(-0.5, 1.5, int(far.sum()))
        return data

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_ragged_cells_equal_per_stream_detectors(self, seed):
        n_streams, n_ticks = 4, sum(self.SPLITS)
        seeds = [seed * 31 + s for s in range(n_streams)]
        kwargs: "dict[str, Any]" = {"n_dims": 2, "warmup": 20,
                                    "model_refresh": 8}
        engine = DetectorEngine(n_streams, self.SPEC, window_size=400,
                                sample_size=32, stream_seeds=seeds, **kwargs)
        reference = [OnlineOutlierDetector(400, 32, self.SPEC,
                                           rng=resolve_rng(None, s), **kwargs)
                     for s in seeds]
        data = self._readings(seed, n_ticks, n_streams)
        start = flagged = 0
        for call, size in enumerate(self.SPLITS):
            if call == 4:
                engine = decode_snapshot(encode_snapshot(engine))
                assert engine._cells.keys.size == 1
            chunk = data[start:start + size]
            flags = engine.ingest(chunk)
            expected, details = _reference_call(reference, chunk, start)
            assert np.array_equal(flags, expected), (call, start)
            got = engine.last_flags
            assert [(f["tick"], f["stream"], f["model_seq"]) for f in got] \
                == [(f["tick"], f["stream"], f["model_seq"])
                    for f in details], (call, start)
            for flag, want in zip(got, details):
                assert flag["score"] == want["score"]
                assert flag["threshold"] == want["threshold"]
            # The variance correction, |W| / distinct centres, is the
            # one each stream's own detector derives.
            for stream, detector in enumerate(reference):
                if detector._mdef is not None:
                    assert engine._evpu[stream] == detector._mdef._evpu
            flagged += int(flags.sum())
            start += size
        assert flagged > 0
        assert (engine._evpu * 32 != engine._built_window).any()


    def test_untabled_grid_equals_per_stream_detectors(self):
        """Two streams of a 7-d grid with 500 cells per dimension: each
        stream's keys fit int64, the composite (stream, cell) keys do
        not, so the engine tables nothing and estimates every cell."""
        spec = MDEFSpec(sampling_radius=0.0015, counting_radius=0.001)
        seeds = [5, 6]
        kwargs: "dict[str, Any]" = {"n_dims": 7, "warmup": 4,
                                    "model_refresh": 4}
        engine = DetectorEngine(2, spec, window_size=200, sample_size=20,
                                stream_seeds=seeds, **kwargs)
        reference = [OnlineOutlierDetector(200, 20, spec,
                                           rng=resolve_rng(None, s), **kwargs)
                     for s in seeds]
        # A tight cluster on one cell centre, and strays one cell over.
        rng = np.random.default_rng(3)
        data = 0.501 + rng.normal(0.0, 0.0001, (100, 2, 7))
        data[rng.random((100, 2)) < 0.1, 0] += 0.0015
        start = flagged = 0
        for size in (1, 9, 3, 27, 60):
            chunk = data[start:start + size]
            flags = engine.ingest(chunk)
            expected, details = _reference_call(reference, chunk, start)
            assert np.array_equal(flags, expected), start
            assert [(f["tick"], f["stream"], f["model_seq"])
                    for f in engine.last_flags] \
                == [(f["tick"], f["stream"], f["model_seq"])
                    for f in details], start
            flagged += int(flags.sum())
            start += size
        assert flagged > 0
        assert engine._cells.keys.size == 1
        assert reference[0]._mdef._keys.size > 1


class TestAcceptanceDrawSplit:
    """``ChainSample.offer_many`` bounds its acceptance-draw scratch by
    splitting a call into spans of ``BLOCK_CELLS // (streams * |R|)``
    ticks.  Splitting is exact: a split engine equals an unsplit one
    call for call."""

    SPAN = 3

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_split_calls_equal_unsplit(self, config, monkeypatch):
        n_streams, seed = 4, 5
        _, n_dims = CONFIGS[config]
        data = _readings(seed, 90, n_streams, n_dims)
        whole = _engine(config, n_streams, seed, False, None)
        split = _engine(config, n_streams, seed, False, None)
        offers = []
        offer = ChainSample._offer_span

        def counting_offer(sample: ChainSample, block: np.ndarray,
                           ts0: int, hits: np.ndarray) -> None:
            offers.append(block.shape[0])
            offer(sample, block, ts0, hits)

        start = 0
        for size in (1, 40, 2, 23, 24):
            chunk = data[start:start + size]
            expected = whole.ingest(chunk)
            with monkeypatch.context() as patch:
                patch.setattr("repro.streams.sampling.BLOCK_CELLS",
                              self.SPAN * n_streams * SAMPLE)
                patch.setattr(ChainSample, "_offer_span", counting_offer)
                flags = split.ingest(chunk)
            assert np.array_equal(flags, expected), start
            assert split.last_flags == whole.last_flags, start
            start += size
        # Every tick was offered once, in sub-blocks of at most SPAN.
        assert sum(offers) == 90
        assert max(offers) == self.SPAN
        assert len(offers) >= 90 // self.SPAN
        assert whole.tick == split.tick == 90
        assert encode_snapshot(split) == encode_snapshot(whole)


class TestAllOrNothingIngest:
    """A batch with a non-finite reading is refused before any state
    changes, so the streams never desynchronise."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_leaves_engine_untouched(self, poison):
        spec = DistanceOutlierSpec(radius=0.5, count_threshold=3)
        engine = DetectorEngine(3, spec, window_size=40, sample_size=16,
                                warmup=10, model_refresh=8,
                                rng=np.random.default_rng(7))
        control = DetectorEngine(3, spec, window_size=40, sample_size=16,
                                 warmup=10, model_refresh=8,
                                 rng=np.random.default_rng(7))
        data = np.random.default_rng(3).normal(size=(64, 3))
        engine.ingest(data[:60])
        control.ingest(data[:60])
        before = encode_snapshot(engine)
        bad = data[60:64].copy()
        bad[2, 1] = poison
        with pytest.raises(ParameterError, match="finite"):
            engine.ingest(bad)
        assert engine.tick == 60
        assert encode_snapshot(engine) == before
        # Every stream continues exactly like an engine that never saw
        # the poison batch.
        clean = data[60:64]
        assert np.array_equal(engine.ingest(clean), control.ingest(clean))
        assert encode_snapshot(engine) == encode_snapshot(control)

    def test_supervised_poison_frame_never_reaches_the_journal(self,
                                                              tmp_path):
        spec = DistanceOutlierSpec(radius=0.5, count_threshold=3)

        def make() -> DetectorEngine:
            return DetectorEngine(3, spec, window_size=40, sample_size=16,
                                  warmup=10, model_refresh=8,
                                  rng=np.random.default_rng(7))

        data = np.random.default_rng(3).normal(size=(96, 3))
        data[::23] += 7.0
        control = make()
        expected = np.concatenate([control.ingest(data[i:i + 32])
                                   for i in range(0, 96, 32)], axis=0)
        plan = FaultPlan(engine_crashes=[EngineCrash(tick=70)])
        sup = SupervisedEngine(make(), tmp_path, checkpoint_every=16,
                               fault_plan=plan)
        first = np.concatenate([sup.ingest(data[i:i + 32])
                                for i in (0, 32)], axis=0)
        bad = data[64:96].copy()
        bad[3, 1] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            sup.ingest(bad)
        assert sup.tick == 64
        assert all(np.isfinite(batch).all()
                   for _, batch in sup.journal.records())
        # The crash at tick 70 replays only clean frames, and the run
        # ends exactly like an uninterrupted one.
        second = sup.ingest(data[64:96])
        assert sup.restarts == 1
        assert np.array_equal(np.concatenate([first, second], axis=0),
                              expected)
        sup.close()


class TestEngineSurface:
    """What a D3 leaf group reads from its engine: per-stream
    generators, the acceptance mask, per-stream states and the model
    version each flag was decided with."""

    SPLITS = (1, 7, 32, 5, 64, 11, 1, 1, 118)

    @staticmethod
    def _seeds(n_streams: int) -> "list[int]":
        return [1000 + 7 * s for s in range(n_streams)]

    def test_generator_list_equals_stream_seeds(self):
        spec, n_dims = CONFIGS["distance-1d"]
        seeds = self._seeds(3)
        by_seed = DetectorEngine(3, spec, window_size=WINDOW,
                                 sample_size=SAMPLE, model_refresh=REFRESH,
                                 stream_seeds=seeds)
        by_rng = DetectorEngine(3, spec, window_size=WINDOW,
                                sample_size=SAMPLE, model_refresh=REFRESH,
                                rng=[resolve_rng(None, s) for s in seeds])
        data = _readings(4, 240, 3, n_dims)
        start = flagged = 0
        for size in self.SPLITS:
            chunk = data[start:start + size]
            flags = by_rng.ingest(chunk)
            assert np.array_equal(flags, by_seed.ingest(chunk)), start
            assert by_rng.last_flags == by_seed.last_flags, start
            flagged += int(flags.sum())
            start += size
        assert flagged > 0
        assert encode_snapshot(by_rng) == encode_snapshot(by_seed)

    def test_generator_list_needs_one_per_stream(self):
        spec, _ = CONFIGS["distance-1d"]
        with pytest.raises(ParameterError, match="one generator per stream"):
            DetectorEngine(3, spec, window_size=WINDOW, sample_size=SAMPLE,
                           rng=[np.random.default_rng(0)] * 2)

    @pytest.mark.parametrize("config", ["distance-1d", "mdef-2d"])
    def test_stream_state_encodes_like_the_stream_detector(self, config):
        spec, n_dims = CONFIGS[config]
        seeds = self._seeds(3)
        engine = DetectorEngine(3, spec, window_size=WINDOW,
                                sample_size=SAMPLE, n_dims=n_dims,
                                model_refresh=REFRESH,
                                rng=[resolve_rng(None, s) for s in seeds])
        detectors = [OnlineOutlierDetector(
            WINDOW, SAMPLE, spec, n_dims=n_dims, model_refresh=REFRESH,
            rng=resolve_rng(None, s)) for s in seeds]
        data = _readings(8, 240, 3, n_dims)
        start = 0
        for size in self.SPLITS:
            chunk = data[start:start + size]
            engine.ingest(chunk)
            for stream, detector in enumerate(detectors):
                detector.process_many(chunk[:, stream])
            start += size
            if start < WINDOW:
                # A detector's count window reads |W| until its first
                # model check; the engine reports min(arrivals, |W|).
                continue
            for stream, detector in enumerate(detectors):
                assert encode_snapshot(engine.stream_state(stream)) \
                    == encode_snapshot(detector._state), (start, stream)

    def test_stream_state_is_a_copy(self):
        spec, n_dims = CONFIGS["distance-1d"]
        engine = _engine("distance-1d", 2, 3, False, None)
        data = _readings(3, 60, 2, n_dims)
        engine.ingest(data[:50])
        before = encode_snapshot(engine)
        state = engine.stream_state(1)
        for row in data[50:, 1]:
            state.observe(row)
        state.model()
        assert encode_snapshot(engine) == before
        with pytest.raises(ParameterError):
            engine.stream_state(2)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_last_accepted_equals_offer_many(self, config):
        _, n_dims = CONFIGS[config]
        seeds = self._seeds(4)
        engine = DetectorEngine(4, CONFIGS[config][0], window_size=WINDOW,
                                sample_size=SAMPLE, n_dims=n_dims,
                                model_refresh=REFRESH,
                                rng=[resolve_rng(None, s) for s in seeds])
        sample = ChainSample(WINDOW, SAMPLE, n_dims,
                             rng=[resolve_rng(None, s) for s in seeds])
        data = _readings(2, 240, 4, n_dims)
        start = 0
        for size in self.SPLITS:
            chunk = data[start:start + size]
            engine.ingest(chunk)
            expected = sample.offer_many(chunk)
            assert engine.last_accepted.shape == (4, size, SAMPLE)
            assert np.array_equal(engine.last_accepted, expected), start
            start += size

    def test_flags_cite_the_model_version_they_were_scored_with(self):
        """Calls longer than the refresh interval rebuild models between
        a flag and the end of the call; the flag keeps its version."""
        spec = DistanceOutlierSpec(radius=0.01, count_threshold=5)
        seeds = self._seeds(4)
        engine = DetectorEngine(4, spec, window_size=300, sample_size=30,
                                model_refresh=16,
                                rng=[resolve_rng(None, s) for s in seeds])
        detectors = [OnlineOutlierDetector(
            300, 30, spec, model_refresh=16, rng=resolve_rng(None, s))
            for s in seeds]
        # Long enough that the vacuity guard below holds for any seeds,
        # not just these (960 ticks gave 2-14 flags across seeds).
        data = np.stack(make_plateau_streams(4, 4800, seed=5), axis=1)
        expected, got = [], []
        for start in range(0, 4800, 64):
            chunk = data[start:start + 64]
            engine.ingest(chunk)
            got.extend((f["tick"], f["stream"], f["model_seq"])
                       for f in engine.last_flags)
            for offset in range(64):
                for stream, detector in enumerate(detectors):
                    decision = detector.process(chunk[offset, stream])
                    if decision is not None and decision.is_outlier:
                        expected.append((start + offset, stream,
                                         detector.model_seq))
        assert len(got) > 10
        assert got == expected
