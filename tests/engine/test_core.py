"""DetectorEngine: the cross-stream engine equals per-stream detectors.

The engine's contract is that ``ingest`` is *observationally* the same
as one :class:`~repro.detectors.single.OnlineOutlierDetector` per stream
fed one reading at a time through ``process``, with per-stream
generators spawned (or seeded) exactly as the engine derives them:

* the detection matrix equals the per-stream decisions, bit for bit;
* ``last_flags`` names the same ``(tick, stream)`` pairs with the
  stream's ``model_seq`` as it stands at the end of the ``ingest``
  call, and the same ``score`` and ``threshold`` up to the last-ulp
  round-off between the scalar path's sorted range query and the
  batched one;
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
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.engine.snapshot import decode_snapshot, encode_snapshot
from repro.engine.supervisor import SupervisedEngine
from repro.network.faults import EngineCrash, FaultPlan

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
            hits.append((offset, score, threshold))
        for offset, score, threshold in hits:
            details.append({"stream": stream, "tick": base + offset,
                            "score": score, "threshold": threshold,
                            "model_seq": detector.model_seq})
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
                assert flag["score"] == pytest.approx(want["score"],
                                                      rel=1e-9, abs=1e-12)
                assert flag["threshold"] == pytest.approx(
                    want["threshold"], rel=1e-9, abs=1e-12)
            start += size
        assert engine.tick == sc["n_ticks"]


class TestAcceptanceDrawSplit:
    """``_observe`` bounds its acceptance-draw scratch by splitting a call
    into spans of ``BLOCK_CELLS // (streams * |R|)`` ticks.  Splitting is
    exact: a split engine equals an unsplit one call for call."""

    SPAN = 3

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_split_calls_equal_unsplit(self, config, monkeypatch):
        n_streams, seed = 4, 5
        _, n_dims = CONFIGS[config]
        data = _readings(seed, 90, n_streams, n_dims)
        whole = _engine(config, n_streams, seed, False, None)
        split = _engine(config, n_streams, seed, False, None)
        offers = []
        offer = DetectorEngine._offer

        def counting_offer(engine: DetectorEngine,
                           block: np.ndarray) -> np.ndarray:
            offers.append(block.shape[0])
            return offer(engine, block)

        start = 0
        for size in (1, 40, 2, 23, 24):
            chunk = data[start:start + size]
            expected = whole.ingest(chunk)
            with monkeypatch.context() as patch:
                patch.setattr("repro.engine.core.BLOCK_CELLS",
                              self.SPAN * n_streams * SAMPLE)
                patch.setattr(DetectorEngine, "_offer", counting_offer)
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
