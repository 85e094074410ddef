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
injected generator (or explicit per-stream seeds), so an engine is fully
determined by its construction arguments.

State is kept as structure-of-arrays over all streams: chain-sample slot
heads (timestamp and value) and pending successor timestamps as
``(streams, |R|)`` arrays, with the rare queued successors in a sparse
map; one EH bucket lane per (stream, dimension); and each stream's
cached model as centres, bandwidths and ``|W|``.  Streams advance in
lockstep, so they share the warm-up end, the model-check cadence and the
EH compress cadence, and ``ingest`` makes one pass per model-check epoch
for all of them: one acceptance comparison over ``(streams, m, |R|)``,
the shared slot walk (:func:`repro.streams.sampling.walk_slot`) only
for slots with an event, one lane insert
(:func:`repro.streams.variance.insert_lanes`), the refresh rule per
stream at the shared check tick, and -- for the distance test -- one
stacked Eq. 5 kernel call.  Every generator draw and every floating-point
operation is the per-stream detector's, so detections are bit-identical.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError
from repro._rng import resolve_rng, rng_from_state, rng_state
from repro._validation import require_fraction, require_positive_int
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.core.estimator import KernelDensityEstimator, range_probabilities
from repro.core.kernels import EPANECHNIKOV
from repro.core.mdef import MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import (
    DEFAULT_BANDWIDTH_TOL,
    arrivals_until_due,
    default_min_arrivals,
    model_bandwidths,
    model_chunks,
    model_is_stale,
)
from repro.detectors.single import bandwidth_cap, spec_from_state, spec_state
from repro.streams.sampling import (
    ChainItems,
    expire_chain,
    report_chain_changes,
    slot_generators,
    walk_slot,
)
from repro.streams.variance import EHLane, insert_lanes, variance_budget

__all__ = ["DetectorEngine"]

#: Per-stream arrays that snapshot as they are, with their dtypes:
#: pending successor timestamps and mutation counts of the chains, and
#: the model cache.
_ARRAYS = (("succ_ts", np.int64), ("mutations", np.int64),
           ("centers", float), ("bandwidths", float), ("built_std", float),
           ("built_window", np.int64), ("built_mutations", np.int64),
           ("model_seq", np.int64))

#: :class:`~repro.streams.variance.EHLane` fields; the snapshot
#: concatenates each over all lanes.
_LANE_FIELDS = ("ts", "counts", "means", "m2s")


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
    epsilon / bandwidth_basis:
        As for :class:`~repro.detectors.single.OnlineOutlierDetector`;
        every stream behaves like one such detector.
    rng:
        Source of randomness; per-stream substreams are spawned from it
        at construction, so the engine consumes nothing from the
        caller's generator afterwards.
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
                 epsilon: float = 0.2, bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None,
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
        else:
            root = resolve_rng(rng)
            try:
                rngs = root.spawn(n_streams)
            except (AttributeError, TypeError):
                seeds = root.integers(0, 2**63, size=n_streams)
                rngs = [resolve_rng(None, int(seed)) for seed in seeds]
        self._configure(n_streams, spec, window_size, sample_size, n_dims,
                        window_size if warmup is None else warmup,
                        model_refresh, epsilon, bandwidth_basis)
        shape = (n_streams, sample_size)
        self._rngs = list(rngs)
        self._slot_rngs = [slot_generators(g, sample_size)
                           for g in self._rngs]
        self._tick = 0
        self._head_ts = np.full(shape, -1, dtype=np.int64)
        self._head_val = np.zeros(shape + (n_dims,))
        self._succ_ts = np.full(shape, -1, dtype=np.int64)
        #: flat slot -> queued successors behind its head (rarely any).
        self._queued: "dict[int, ChainItems]" = {}
        self._mutations = np.zeros(n_streams, dtype=np.int64)
        self._lanes = [EHLane() for _ in range(n_streams * n_dims)]
        self._since_compress = 0
        self._last_check = -1         # -1: no model built yet
        self._centers = np.zeros(shape + (n_dims,))
        self._bandwidths = np.ones((n_streams, n_dims))
        self._built_std = np.zeros((n_streams, n_dims))
        self._built_window = np.zeros(n_streams, dtype=np.int64)
        self._built_mutations = np.zeros(n_streams, dtype=np.int64)
        self._model_seq = np.zeros(n_streams, dtype=np.int64)
        self._models: "list[KernelDensityEstimator | None]" = \
            [None] * n_streams
        self._last_flags: "list[dict[str, Any]]" = []

    def _configure(self, n_streams: int,
                   spec: "DistanceOutlierSpec | MDEFSpec", window_size: int,
                   sample_size: int, n_dims: int, warmup: int,
                   model_refresh: int, epsilon: float,
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
        self._kernel = EPANECHNIKOV

    # ------------------------------------------------------------------

    @property
    def n_streams(self) -> int:
        """Number of streams this engine owns."""
        return self._n_streams

    @property
    def tick(self) -> int:
        """The next tick to be ingested (= ticks processed so far)."""
        return self._tick

    @property
    def last_flags(self) -> "list[dict[str, Any]]":
        """Flag details from the most recent :meth:`ingest` call.

        One dict per flagged reading -- ``stream`` (engine-local index),
        ``tick``, ``score``, ``threshold`` and ``model_seq`` (the
        stream's model version at the end of the call) -- ordered by
        ``(tick, stream)``.  Maintained unconditionally (pure
        bookkeeping over decisions already computed, no RNG or
        control-flow impact), so telemetry emitters can consume it
        without perturbing the detection path: traced and untraced runs
        stay bit-identical.
        """
        return list(self._last_flags)

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
                f"(tick {self._tick + offset}), stream {stream} holds "
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
        out = (detections, scores, thresholds)
        self._last_flags = []
        for i, j, due in model_chunks(m, self._tick, self._warmup,
                                      self._arrivals_until_due):
            self._observe(arr[i:j])
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
        base = self._tick - m
        self._last_flags = [
            {"stream": stream, "tick": base + row, "score": score,
             "threshold": threshold, "model_seq": seq}
            for row, stream, score, threshold, seq in zip(
                rows.tolist(), streams.tolist(),
                scores[rows, streams].tolist(),
                thresholds[rows, streams].tolist(),
                self._model_seq[streams].tolist())]
        if _sanitize.ACTIVE:
            _sanitize.check_engine(self)
        return detections

    # ------------------------------------------------------------------
    # Stream maintenance: chain samples and EH lanes
    # ------------------------------------------------------------------

    def _chain(self, flat: int) -> ChainItems:
        """Slot ``flat``'s chain as a fresh list (head first)."""
        stream, slot = divmod(flat, self._sample_size)
        ts = int(self._head_ts[stream, slot])
        items: ChainItems = [] if ts < 0 \
            else [(ts, self._head_val[stream, slot])]
        queued = self._queued.get(flat)
        if queued:
            items.extend(queued)
        return items

    def _store_chain(self, flat: int, items: ChainItems) -> None:
        """Write a chain from :meth:`_chain` back into the arrays."""
        stream, slot = divmod(flat, self._sample_size)
        if items:
            self._head_ts[stream, slot] = items[0][0]
            self._head_val[stream, slot] = items[0][1]
        else:
            self._head_ts[stream, slot] = -1
        if len(items) > 1:
            self._queued[flat] = items[1:]
        else:
            self._queued.pop(flat, None)

    def _observe(self, block: np.ndarray) -> None:
        """Feed ``k`` ticks of all streams to the chains and EH lanes."""
        k = block.shape[0]
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        mutations = self._mutations.copy()
        evictions = np.zeros(self._n_streams, dtype=np.int64)
        # Acceptance draws are materialised for (streams, ticks, |R|);
        # bound that scratch like the kernels' (splitting a block is
        # exact: offer_many over consecutive blocks equals one call).
        span = max(1, BLOCK_CELLS // (self._n_streams * self._sample_size))
        for start in range(0, k, span):
            evictions += self._offer(block[start:start + span])
        if obs.ACTIVE:
            t1 = time.perf_counter()
            obs.profiler().record("chain.offer_many", t1 - t0)
            for changes in zip((self._mutations - mutations).tolist(),
                               evictions.tolist()):
                report_chain_changes(*changes, timestamp=self._tick - 1)
        columns = block.reshape(k, -1).T.tolist()
        self._since_compress, _ = insert_lanes(
            self._lanes, columns, self._tick - k, self._since_compress,
            self._window, self._epsilon / 2.0, variance_budget(self._epsilon))
        if obs.ACTIVE:
            obs.profiler().record("sketch.update_many",
                                  time.perf_counter() - t1)

    def _offer(self, block: np.ndarray) -> np.ndarray:
        """Chain-sample ``block`` (``k`` ticks) into every stream's slots.

        Returns each stream's evictions (expired active elements).
        """
        k = block.shape[0]
        n_slots = self._sample_size
        window = self._window
        ts0 = self._tick
        ts_end = ts0 + k - 1
        inclusion = 1.0 / np.minimum(np.arange(ts0, ts0 + k) + 1, window)
        mutated = [0] * self._n_streams
        evicted = [0] * self._n_streams
        # Each stream's generator fills its (k, |R|) plane exactly as
        # its own rng.random((k, |R|)) would.
        draws = np.empty((self._n_streams, k, n_slots))
        for stream, rng in enumerate(self._rngs):
            rng.random(out=draws[stream])
        hits = draws < inclusion[None, :, None]
        succ = self._succ_ts
        events = np.flatnonzero(hits.any(axis=1)
                                | ((succ >= ts0) & (succ <= ts_end)))
        if events.size:
            # Hit rows per slot, slot-major then arrival order.
            hit_streams, hit_slots, hit_rows = \
                np.nonzero(hits.transpose(0, 2, 1))
            keys = hit_streams * n_slots + hit_slots
            lo = np.searchsorted(keys, events).tolist()
            hi = np.searchsorted(keys, events, side="right").tolist()
            for flat, a, b in zip(events.tolist(), lo, hi):
                stream, slot = divmod(flat, n_slots)
                items = self._chain(flat)
                succ[stream, slot], mutations, evictions = walk_slot(
                    items, int(succ[stream, slot]),
                    self._slot_rngs[stream][slot], hit_rows[a:b],
                    block[:, stream], ts0, window)
                mutated[stream] += mutations
                evicted[stream] += evictions
                self._store_chain(flat, items)
        horizon = ts_end - window
        head = self._head_ts
        for flat in np.flatnonzero((head >= 0) & (head <= horizon)).tolist():
            items = self._chain(flat)
            expired = expire_chain(items, horizon)
            mutated[flat // n_slots] += expired
            evicted[flat // n_slots] += expired
            self._store_chain(flat, items)
        self._mutations += mutated
        self._tick = ts_end + 1
        return np.array(evicted, dtype=np.int64)

    # ------------------------------------------------------------------
    # Models and decisions
    # ------------------------------------------------------------------

    def _arrivals_until_due(self) -> int:
        """Arrivals until the streams' shared model check (>= 1)."""
        return arrivals_until_due(self._last_check >= 0, self._tick,
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
        if self._tick < self._min_arrivals:
            return
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        had_models = self._last_check >= 0
        self._last_check = self._tick
        std = np.array([lane.std() for lane in self._lanes]).reshape(
            self._n_streams, self._n_dims)
        window = max(1, min(self._tick, self._window))
        stale = np.ones(self._n_streams, dtype=bool)
        if had_models:
            stale = model_is_stale(self._mutations, self._built_mutations,
                                   window, self._built_window, std,
                                   self._built_std, self._tol)
        rebuilt = np.flatnonzero(stale)
        if not rebuilt.size:
            return
        for stream in rebuilt.tolist():
            self._bandwidths[stream] = model_bandwidths(
                std[stream], self._sample_size, window, self._basis,
                self._cap)
        self._centers[rebuilt] = self._head_val[rebuilt]
        self._built_std[rebuilt] = std[rebuilt]
        self._built_window[rebuilt] = window
        self._built_mutations[rebuilt] = self._mutations[rebuilt]
        self._model_seq[rebuilt] += 1
        if isinstance(self._spec, MDEFSpec):
            for stream in rebuilt.tolist():
                self._models[stream] = self._mdef_model(stream)
        elif _sanitize.ACTIVE:
            _sanitize.check_bandwidths(self._bandwidths[rebuilt],
                                       label="DetectorEngine")
        if obs.ACTIVE:
            # One vectorised rebuild for all streams: each rebuilt stream
            # is charged an equal share of it.
            share = (time.perf_counter() - t0) / rebuilt.size
            for _ in range(rebuilt.size):
                obs.profiler().record("estimator.rebuild", share)
                obs.emit("estimator.rebuild",
                         sample_size=self._sample_size, dur_s=share)

    def _mdef_model(self, stream: int) -> KernelDensityEstimator:
        """Stream ``stream``'s cached model as an estimator object."""
        return KernelDensityEstimator(
            self._centers[stream].copy(), stddev=self._built_std[stream],
            bandwidths=self._bandwidths[stream].copy(), kernel=self._kernel,
            window_size=int(self._built_window[stream]))

    def _decide(self, arr: np.ndarray, lo: int, hi: int,
                out: "tuple[np.ndarray, np.ndarray, np.ndarray]") -> None:
        """Score rows ``lo:hi`` of every stream against its cached model."""
        detections, scores, thresholds = out
        spec = self._spec
        if isinstance(spec, DistanceOutlierSpec):
            # Eq. 4: N(p, r) = P[p - r, p + r] * |W|, all streams at once.
            points = arr[lo:hi].transpose(1, 0, 2)
            counts = range_probabilities(
                self._kernel, points - spec.radius, points + spec.radius,
                self._centers, self._bandwidths) \
                * self._built_window[:, None]
            detections[lo:hi] = (counts < spec.count_threshold).T
            scores[lo:hi] = counts.T
            thresholds[lo:hi] = float(spec.count_threshold)
            return
        for stream, model in enumerate(self._models):
            assert model is not None
            decisions = MDEFOutlierDetector(model, spec).check_many(
                arr[lo:hi, stream])
            for row, decision in enumerate(decisions, start=lo):
                if decision.is_outlier:
                    detections[row, stream] = True
                    scores[row, stream] = decision.mdef
                    thresholds[row, stream] = \
                        spec.k_sigma * decision.sigma_mdef

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Chains travel as flat ``(slot, ts, value)`` arrays (heads and
        queued successors, slot-major) and EH lanes as concatenated
        bucket arrays with per-lane lengths; generator states travel as
        the bit generators' own state dicts.
        """
        slots: "list[int]" = []
        ts: "list[int]" = []
        values: "list[np.ndarray]" = []
        for flat in range(self._n_streams * self._sample_size):
            for item_ts, value in self._chain(flat):
                slots.append(flat)
                ts.append(item_ts)
                values.append(value)
        state: "dict[str, Any]" = {
            "n_streams": self._n_streams,
            "spec": spec_state(self._spec),
            "window_size": self._window,
            "sample_size": self._sample_size,
            "n_dims": self._n_dims,
            "warmup": self._warmup,
            "model_refresh": self._refresh,
            "epsilon": self._epsilon,
            "bandwidth_basis": self._basis,
            "tick": self._tick,
            "rngs": [rng_state(g) for g in self._rngs],
            "slot_rngs": [[rng_state(g) for g in gens]
                          for gens in self._slot_rngs],
            "chain_slot": np.array(slots, dtype=np.int64),
            "chain_ts": np.array(ts, dtype=np.int64),
            "chain_value": np.array(values).reshape(-1, self._n_dims),
            "lane_len": np.array([len(lane) for lane in self._lanes],
                                 dtype=np.int64),
            "since_compress": self._since_compress,
            "last_check": self._last_check,
        }
        for name in _LANE_FIELDS:
            state[f"lane_{name}"] = np.array(
                [x for lane in self._lanes for x in getattr(lane, name)])
        for name, _ in _ARRAYS:
            state[name] = getattr(self, f"_{name}").copy()
        return state

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "DetectorEngine":
        """Rebuild an engine from a :meth:`snapshot_state` dict."""
        engine = cls.__new__(cls)
        n_streams = int(state["n_streams"])
        n_slots = int(state["sample_size"])
        d = int(state["n_dims"])
        engine._configure(
            n_streams, spec_from_state(state["spec"]),
            int(state["window_size"]), n_slots, d, int(state["warmup"]),
            int(state["model_refresh"]), float(state["epsilon"]),
            str(state["bandwidth_basis"]))
        engine._tick = int(state["tick"])
        engine._rngs = [rng_from_state(s) for s in state["rngs"]]
        engine._slot_rngs = [[rng_from_state(s) for s in gens]
                             for gens in state["slot_rngs"]]
        for name, dtype in _ARRAYS:
            # astype() copies into the canonical dtype object, so a
            # restored engine snapshots to the same bytes as the original.
            setattr(engine, f"_{name}", np.asarray(state[name]).astype(dtype))
        engine._head_ts = np.full((n_streams, n_slots), -1, dtype=np.int64)
        engine._head_val = np.zeros((n_streams, n_slots, d))
        engine._queued = {}
        chains: "dict[int, ChainItems]" = {}
        for flat, ts, value in zip(
                np.asarray(state["chain_slot"]).tolist(),
                np.asarray(state["chain_ts"]).tolist(),
                np.asarray(state["chain_value"], dtype=float)):
            chains.setdefault(flat, []).append((ts, value.copy()))
        for flat, items in chains.items():
            engine._store_chain(flat, items)
        columns = [np.asarray(state[f"lane_{name}"]).tolist()
                   for name in _LANE_FIELDS]
        bounds = np.cumsum([0, *np.asarray(state["lane_len"]).tolist()])
        engine._lanes = [EHLane(*(column[a:b] for column in columns))
                         for a, b in zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist())]
        engine._since_compress = int(state["since_compress"])
        engine._last_check = int(state["last_check"])
        engine._models = [None] * n_streams
        if isinstance(engine._spec, MDEFSpec) and engine._last_check >= 0:
            engine._models = [engine._mdef_model(s)
                              for s in range(n_streams)]
        engine._last_flags = []
        return engine
