"""The multi-stream detector engine: ``ingest(batch) -> detections``.

The engine runs the paper's per-reading pipeline -- the Section 5 chain
sample and EH variance sketch, the change-driven model refresh, then the
Eq. 5 neighbourhood count (D3) or the MDEF test (MGDD) -- for many
independent sensor streams behind one batched call.  It is, together
with the snapshot codec, the unit of state a supervisor can kill, move
and restore bit for bit.

A batch is tick-major: shape ``(m, n_streams)`` for scalar readings (or
``(m, n_streams, d)`` for d-dimensional ones), covering ``m``
consecutive ticks across every stream.  ``ingest`` returns a boolean
``(m, n_streams)`` detection matrix: ``True`` exactly where the stream's
:class:`~repro.detectors.single.OnlineOutlierDetector`, built from the
same generator, would flag the reading (warm-up readings are
``False``).  Per-stream randomness comes from spawned substreams of one
injected generator (or from per-stream generators or seeds), so an
engine is fully determined by its construction arguments.

State is kept as structure-of-arrays over all streams.  One
:class:`~repro.streams.sampling.ChainSample` holds every stream's
chain-sample slots (head timestamps and values and pending successor
timestamps as ``(streams, |R|)`` arrays, the rare queued successors in a
sparse map), and one
:class:`~repro.streams.variance.MultiDimVarianceSketch` holds one EH
bucket lane per (stream, dimension); the engine itself keeps each
stream's cached model as centres, bandwidths and ``|W|`` (for the MDEF
test, also an :class:`~repro.core.mdef.MDEFOutlierDetector` over it that
lives as long as the model).  Streams advance in lockstep, so they share
the warm-up end, the model-check cadence and the EH compress cadence,
and ``ingest`` makes one pass per model-check epoch for all of them: one
``offer_many`` (one acceptance comparison over ``(streams, m, |R|)``,
the slot walk only for slots with an event), one ``insert_many`` over
all lanes, the refresh rule per stream at the shared check tick, and
one stacked Eq. 5 kernel call for every reading's neighbourhood count
(the distance test's score, or the MDEF test's counting neighbourhood,
whose sampling cells each stream's detector then takes from its table).
Every generator draw and every floating-point operation is the
per-stream detector's, so detections are bit-identical.

Beside the detection matrix, each call leaves the per-arrival
acceptance mask (:attr:`DetectorEngine.last_accepted`) and, for each
flag, the score and the model version it was decided with
(:attr:`DetectorEngine.last_flags`); :meth:`DetectorEngine.stream_state`
copies one stream out as the one-stream
:class:`~repro.detectors._state.StreamModelState` its own detector would
hold.  A D3 network's leaves run on one engine this way
(:class:`~repro.detectors.d3.D3LeafGroup`).
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng
from repro._validation import require_fraction, require_positive_int
from repro.core.estimator import KernelDensityEstimator, range_probabilities
from repro.core.kernels import EPANECHNIKOV, Kernel, kernel_by_name
from repro.core.mdef import MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import (
    DEFAULT_BANDWIDTH_TOL,
    StreamModelState,
    arrivals_until_due,
    default_min_arrivals,
    model_bandwidths,
    model_chunks,
    model_is_stale,
)
from repro.detectors.single import bandwidth_cap, spec_from_state, spec_state
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch

__all__ = ["DetectorEngine"]

#: The model cache's per-stream arrays, which snapshot as they are,
#: with their dtypes.
_ARRAYS = (("centers", float), ("bandwidths", float), ("built_std", float),
           ("built_window", np.int64), ("built_mutations", np.int64),
           ("model_seq", np.int64))


# repro-lint: shard-state
class DetectorEngine:
    """Online outlier detection for many streams behind one batched call.

    Parameters
    ----------
    n_streams:
        Number of independent sensor streams this engine owns.
    spec:
        The outlier definition every stream applies
        (:class:`~repro.core.outliers.DistanceOutlierSpec` for the D3
        test, :class:`~repro.core.mdef.MDEFSpec` for MGDD).
    window_size / sample_size / n_dims / warmup / model_refresh /
    epsilon / kernel / bandwidth_basis:
        As for :class:`~repro.detectors.single.OnlineOutlierDetector`;
        every stream behaves like one such detector.
    rng:
        Source of randomness: one generator, from which per-stream
        substreams are spawned at construction (so the engine consumes
        nothing from the caller's generator afterwards), or one
        generator per stream, which stream ``i`` then uses as its own
        detector would.
    stream_seeds:
        Explicit per-stream seeds (one per stream) overriding ``rng``.
        This is the *partition invariance* hook the fleet pilot relies
        on: derive one seed per global stream, give each worker the
        slice for its streams, and a stream consumes an identical
        randomness substream whether it runs in a single-process engine
        over all streams or in any sharded partitioning -- so detections
        stay ``np.array_equal`` across process layouts.
    """

    def __init__(self, n_streams: int,
                 spec: "DistanceOutlierSpec | MDEFSpec", *,
                 window_size: int, sample_size: int, n_dims: int = 1,
                 warmup: int | None = None, model_refresh: int = 32,
                 epsilon: float = 0.2, kernel: Kernel = EPANECHNIKOV,
                 bandwidth_basis: str = "window",
                 rng: "np.random.Generator | Sequence[np.random.Generator] | None" = None,
                 stream_seeds: "Sequence[int] | None" = None) -> None:
        for name, value in (("n_streams", n_streams),
                            ("window_size", window_size),
                            ("sample_size", sample_size),
                            ("n_dims", n_dims),
                            ("model_refresh", model_refresh)):
            require_positive_int(name, value)
        require_fraction("epsilon", epsilon)
        if sample_size > window_size:
            raise ParameterError("sample_size cannot exceed window_size")
        if not isinstance(spec, (DistanceOutlierSpec, MDEFSpec)):
            raise ParameterError(
                "spec must be a DistanceOutlierSpec or an MDEFSpec, "
                f"got {type(spec).__name__}")
        if warmup is not None and warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {warmup}")
        if bandwidth_basis not in ("window", "sample"):
            raise ParameterError(
                f"bandwidth_basis must be 'window' or 'sample', "
                f"got {bandwidth_basis!r}")
        if stream_seeds is not None:
            if len(stream_seeds) != n_streams:
                raise ParameterError(
                    f"stream_seeds must have one seed per stream "
                    f"({n_streams}), got {len(stream_seeds)}")
            rngs: "Sequence[np.random.Generator]" = [
                resolve_rng(None, int(seed)) for seed in stream_seeds]
        elif rng is not None and not isinstance(rng, np.random.Generator):
            rngs = list(rng)
            if len(rngs) != n_streams:
                raise ParameterError(
                    f"rng must hold one generator per stream "
                    f"({n_streams}), got {len(rngs)}")
        else:
            root = resolve_rng(rng)
            try:
                rngs = root.spawn(n_streams)
            except (AttributeError, TypeError):
                seeds = root.integers(0, 2**63, size=n_streams)
                rngs = [resolve_rng(None, int(seed)) for seed in seeds]
        self._configure(n_streams, spec, window_size, sample_size, n_dims,
                        window_size if warmup is None else warmup,
                        model_refresh, epsilon, kernel, bandwidth_basis)
        shape = (n_streams, sample_size)
        self._sample = ChainSample(window_size, sample_size, n_dims,
                                   rng=rngs)
        self._sketch = MultiDimVarianceSketch(window_size,
                                              n_streams * n_dims, epsilon)
        self._last_check = -1         # -1: no model built yet
        self._centers = np.zeros(shape + (n_dims,))
        self._bandwidths = np.ones((n_streams, n_dims))
        self._built_std = np.zeros((n_streams, n_dims))
        self._built_window = np.zeros(n_streams, dtype=np.int64)
        self._built_mutations = np.zeros(n_streams, dtype=np.int64)
        self._model_seq = np.zeros(n_streams, dtype=np.int64)
        self._models: "list[MDEFOutlierDetector | None]" = \
            [None] * n_streams
        self._last_flags: "list[dict[str, Any]]" = []
        self._accepted: "list[np.ndarray]" = []

    def _configure(self, n_streams: int,
                   spec: "DistanceOutlierSpec | MDEFSpec", window_size: int,
                   sample_size: int, n_dims: int, warmup: int,
                   model_refresh: int, epsilon: float, kernel: Kernel,
                   bandwidth_basis: str) -> None:
        """Set the configuration fields shared by all streams."""
        self._n_streams = n_streams
        self._spec = spec
        self._window = window_size
        self._sample_size = sample_size
        self._n_dims = n_dims
        self._warmup = warmup
        self._refresh = model_refresh
        self._epsilon = epsilon
        self._basis = bandwidth_basis
        self._cap = bandwidth_cap(spec)
        # StreamModelState's defaults, which OnlineOutlierDetector keeps.
        self._min_arrivals = default_min_arrivals(sample_size)
        self._tol = DEFAULT_BANDWIDTH_TOL
        self._kernel = kernel

    # ------------------------------------------------------------------

    @property
    def n_streams(self) -> int:
        """Number of streams this engine owns."""
        return self._n_streams

    @property
    def tick(self) -> int:
        """The next tick to be ingested (= ticks processed so far)."""
        return self._sample.timestamp + 1

    @property
    def last_flags(self) -> "list[dict[str, Any]]":
        """Flag details from the most recent :meth:`ingest` call.

        One dict per flagged reading -- ``stream`` (engine-local index),
        ``tick``, ``score``, ``threshold`` and ``model_seq`` (the
        version of the stream's model the reading was scored with, as
        the stream's own detector reports it at that reading) --
        ordered by ``(tick, stream)``.  Maintained unconditionally (pure
        bookkeeping over decisions already computed, no RNG or
        control-flow impact), so telemetry emitters can consume it
        without perturbing the detection path: traced and untraced runs
        stay bit-identical.
        """
        return list(self._last_flags)

    @property
    def last_accepted(self) -> np.ndarray:
        """The acceptance mask of the most recent :meth:`ingest` call.

        Shape ``(n_streams, m, |R|)``: row ``t`` of stream ``s`` marks
        the sample slots whose active element the call's arrival ``t``
        replaced, as :meth:`ChainSample.offer_many
        <repro.streams.sampling.ChainSample.offer_many>` reports it (an
        arrival that replaced any slot is what a D3 leaf may forward).
        """
        if len(self._accepted) == 1:
            return self._accepted[0]
        if not self._accepted:
            return np.zeros((self._n_streams, 0, self._sample_size),
                            dtype=bool)
        return np.concatenate(self._accepted, axis=1)

    # ------------------------------------------------------------------

    def _as_batch(self, batch: "np.ndarray | Sequence[Any]") -> np.ndarray:
        """Validate a whole batch before anything consumes it.

        Shape and finiteness are checked up front, so a bad batch is
        refused with no state changed: no stream advances and a
        supervisor never journals it.
        """
        arr = np.asarray(batch, dtype=float)
        if self._n_dims == 1 and arr.ndim == 2:
            arr = arr[:, :, None]
        if (arr.ndim != 3 or arr.shape[1] != self._n_streams
                or arr.shape[2] != self._n_dims):
            raise ParameterError(
                f"batch must have shape (m, {self._n_streams}) or "
                f"(m, {self._n_streams}, {self._n_dims}), got {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            offset, stream, _ = np.argwhere(~finite)[0]
            raise ParameterError(
                f"readings must all be finite; batch row {offset} "
                f"(tick {self.tick + offset}), stream {stream} holds "
                f"{arr[offset, stream].tolist()}")
        return arr

    def ingest(self, batch: "np.ndarray | Sequence[Any]") -> np.ndarray:
        """Feed ``m`` ticks of readings; return the detection matrix.

        Equivalent to running each stream's
        :class:`~repro.detectors.single.OnlineOutlierDetector` over its
        column (``process_many`` or one ``process`` per reading); a
        reading maps to ``True`` exactly when its decision exists and
        flags an outlier.
        """
        arr = self._as_batch(batch)
        m = arr.shape[0]
        detections = np.zeros((m, self._n_streams), dtype=bool)
        scores = np.zeros((m, self._n_streams))
        thresholds = np.zeros((m, self._n_streams))
        seqs = np.zeros((m, self._n_streams), dtype=np.int64)
        out = (detections, scores, thresholds, seqs)
        self._last_flags = []
        self._accepted = []
        for i, j, due in model_chunks(m, self.tick, self._warmup,
                                      self._arrivals_until_due):
            block = arr[i:j]
            self._accepted.append(self._sample.offer_many(block))
            self._sketch.insert_many(block.reshape(j - i, -1))
            if due is None:
                continue
            if not due:
                if self._last_check >= 0:
                    self._decide(arr, i, j, out)
                continue
            if self._last_check >= 0 and j - i > 1:
                self._decide(arr, i, j - 1, out)
            self._check_models()
            if self._last_check >= 0:
                self._decide(arr, j - 1, j, out)
        rows, streams = np.nonzero(detections)
        base = self.tick - m
        self._last_flags = [
            {"stream": stream, "tick": base + row, "score": score,
             "threshold": threshold, "model_seq": seq}
            for row, stream, score, threshold, seq in zip(
                rows.tolist(), streams.tolist(),
                scores[rows, streams].tolist(),
                thresholds[rows, streams].tolist(),
                seqs[rows, streams].tolist())]
        return detections

    # ------------------------------------------------------------------
    # Models and decisions
    # ------------------------------------------------------------------

    def _arrivals_until_due(self) -> int:
        """Arrivals until the streams' shared model check (>= 1)."""
        return arrivals_until_due(self._last_check >= 0, self.tick,
                                  self._last_check, self._min_arrivals,
                                  self._refresh)

    def _check_models(self) -> None:
        """The change-driven refresh rule, per stream, at a shared check.

        The rule of :meth:`repro.detectors._state.StreamModelState.model`
        (:func:`~repro.detectors._state.model_is_stale` and
        :func:`~repro.detectors._state.model_bandwidths`) over all
        streams at once.  Every slot holds an element from the first
        tick on (the first arrival is accepted with probability 1), so a
        stream's sample is its ``|R|`` slot heads.
        """
        tick = self.tick
        if tick < self._min_arrivals:
            return
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        had_models = self._last_check >= 0
        self._last_check = tick
        std = self._sketch.std().reshape(self._n_streams, self._n_dims)
        window = max(1, min(tick, self._window))
        mutations = self._sample.mutation_counts
        stale = np.ones(self._n_streams, dtype=bool)
        if had_models:
            stale = model_is_stale(mutations, self._built_mutations,
                                   window, self._built_window, std,
                                   self._built_std, self._tol)
        rebuilt = np.flatnonzero(stale)
        if not rebuilt.size:
            return
        for stream in rebuilt.tolist():
            self._bandwidths[stream] = model_bandwidths(
                std[stream], self._sample_size, window, self._basis,
                self._cap)
        self._centers[rebuilt] = self._sample.values().reshape(
            self._n_streams, self._sample_size, self._n_dims)[rebuilt]
        self._built_std[rebuilt] = std[rebuilt]
        self._built_window[rebuilt] = window
        self._built_mutations[rebuilt] = mutations[rebuilt]
        self._model_seq[rebuilt] += 1
        if isinstance(self._spec, MDEFSpec):
            for stream in rebuilt.tolist():
                self._models[stream] = self._mdef_detector(stream)
        elif _sanitize.ACTIVE:
            _sanitize.check_bandwidths(self._bandwidths[rebuilt],
                                       label="DetectorEngine")
        if obs.ACTIVE:
            # One vectorised rebuild for all streams: each rebuilt stream
            # is charged an equal share of it.
            share = (time.perf_counter() - t0) / rebuilt.size
            for _ in range(rebuilt.size):
                obs.emit("estimator.rebuild",
                         sample_size=self._sample_size, dur_s=share)

    def _model(self, stream: int) -> KernelDensityEstimator:
        """Stream ``stream``'s cached model as an estimator object."""
        return KernelDensityEstimator(
            self._centers[stream].copy(), stddev=self._built_std[stream],
            bandwidths=self._bandwidths[stream].copy(), kernel=self._kernel,
            window_size=int(self._built_window[stream]))

    def _mdef_detector(self, stream: int) -> MDEFOutlierDetector:
        """An MDEF detector over stream ``stream``'s cached model.

        It lives as long as the model, so its cell-population table
        fills once per model; snapshots leave the table out.
        """
        return MDEFOutlierDetector(self._model(stream), self._spec)

    def _decide(self, arr: np.ndarray, lo: int, hi: int,
                out: "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]",
                ) -> None:
        """Score rows ``lo:hi`` of every stream against its cached model."""
        detections, scores, thresholds, seqs = out
        seqs[lo:hi] = self._model_seq
        spec = self._spec
        distance = isinstance(spec, DistanceOutlierSpec)
        r = spec.radius if distance else spec.counting_radius
        # Eq. 4: N(p, r) = P[p - r, p + r] * |W|, all streams at once --
        # the distance test's count, or MDEF's counting neighbourhood.
        points = arr[lo:hi].transpose(1, 0, 2)
        counts = range_probabilities(
            self._kernel, points - r, points + r, self._centers,
            self._bandwidths) * self._built_window[:, None]
        if distance:
            detections[lo:hi] = (counts < spec.count_threshold).T
            scores[lo:hi] = counts.T
            thresholds[lo:hi] = float(spec.count_threshold)
            return
        for stream, detector in enumerate(self._models):
            assert detector is not None
            decisions = detector.check_many(points[stream], counts[stream])
            for row, decision in enumerate(decisions, start=lo):
                if decision.is_outlier:
                    detections[row, stream] = True
                    scores[row, stream] = decision.mdef
                    thresholds[row, stream] = \
                        spec.k_sigma * decision.sigma_mdef

    # ------------------------------------------------------------------
    # One stream's state
    # ------------------------------------------------------------------

    def stream_state(self, stream: int) -> StreamModelState:
        """Stream ``stream`` as a detached one-stream state.

        The :class:`~repro.detectors._state.StreamModelState` that the
        stream's own detector (an
        :class:`~repro.detectors.single.OnlineOutlierDetector` or a D3
        leaf built from the same generator) would hold after the same
        readings -- chain sample, sketch lanes, cached model and
        refresh bookkeeping -- so it encodes to the same snapshot
        bytes.  Its count window is the one the next model check would
        use, ``min(arrivals, |W|)`` (``|W|`` before any arrival).  It
        is a copy: feeding it leaves the engine unchanged.
        """
        if not 0 <= stream < self._n_streams:
            raise ParameterError(
                f"stream must lie in [0, {self._n_streams}), got {stream}")
        d = self._n_dims
        built = self._last_check >= 0
        tick = self.tick
        return StreamModelState.restore_state({
            "bandwidth_basis": self._basis,
            "sample": self._sample.snapshot_state(stream),
            "sketch": self._sketch.snapshot_state(
                slice(stream * d, (stream + 1) * d)),
            "kernel": self._kernel.name,
            "bandwidth_cap": self._cap,
            "model_refresh": self._refresh,
            "bandwidth_tol": self._tol,
            "min_arrivals": self._min_arrivals,
            "arrivals": tick,
            "last_check": self._last_check,
            "cached": self._model(stream).snapshot_state() if built
            else None,
            "built_std": self._built_std[stream] if built else None,
            "built_window_size": int(self._built_window[stream])
            if built else -1,
            "built_mutations": int(self._built_mutations[stream])
            if built else -1,
            "model_seq": int(self._model_seq[stream]),
            "count_window_size": min(tick, self._window) or self._window,
        })

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        The chain samples and EH lanes travel in their stores' own flat
        layouts (:meth:`ChainSample.snapshot_state
        <repro.streams.sampling.ChainSample.snapshot_state>`,
        :meth:`MultiDimVarianceSketch.snapshot_state
        <repro.streams.variance.MultiDimVarianceSketch.snapshot_state>`)
        beside the model cache.
        """
        state: "dict[str, Any]" = {
            "n_streams": self._n_streams,
            "spec": spec_state(self._spec),
            "window_size": self._window,
            "sample_size": self._sample_size,
            "n_dims": self._n_dims,
            "warmup": self._warmup,
            "model_refresh": self._refresh,
            "epsilon": self._epsilon,
            "kernel": self._kernel.name,
            "bandwidth_basis": self._basis,
            "sample": self._sample.snapshot_state(),
            "sketch": self._sketch.snapshot_state(),
            "last_check": self._last_check,
        }
        for name, _ in _ARRAYS:
            state[name] = getattr(self, f"_{name}").copy()
        return state

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "DetectorEngine":
        """Rebuild an engine from a :meth:`snapshot_state` dict."""
        engine = cls.__new__(cls)
        n_streams = int(state["n_streams"])
        engine._configure(
            n_streams, spec_from_state(state["spec"]),
            int(state["window_size"]), int(state["sample_size"]),
            int(state["n_dims"]), int(state["warmup"]),
            int(state["model_refresh"]), float(state["epsilon"]),
            kernel_by_name(str(state["kernel"])),
            str(state["bandwidth_basis"]))
        engine._sample = ChainSample.restore_state(state["sample"])
        engine._sketch = MultiDimVarianceSketch.restore_state(state["sketch"])
        for name, dtype in _ARRAYS:
            # astype() copies into the canonical dtype object, so a
            # restored engine snapshots to the same bytes as the original.
            setattr(engine, f"_{name}", np.asarray(state[name]).astype(dtype))
        engine._last_check = int(state["last_check"])
        engine._models = [None] * n_streams
        if isinstance(engine._spec, MDEFSpec) and engine._last_check >= 0:
            engine._models = [engine._mdef_detector(s)
                              for s in range(n_streams)]
        engine._last_flags = []
        engine._accepted = []
        return engine
