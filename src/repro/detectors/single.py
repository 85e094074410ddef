"""A batteries-included single-sensor online detector.

The distributed algorithms (D3/MGDD) compose chain samples, variance
sketches and kernel models per node; embedding the same loop on a single
device keeps coming up (the quickstart, the CLI, unit deployments), so
this module packages it behind one call:

    detector = OnlineOutlierDetector(
        window_size=2_000, sample_size=100,
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=9))
    for value in readings:                       # readings in [0, 1]
        decision = detector.process(value)
        if decision is not None and decision.is_outlier:
            ...

``spec`` may be a :class:`~repro.core.outliers.DistanceOutlierSpec` or a
:class:`~repro.core.mdef.MDEFSpec`; the detector picks the matching test.
``process`` returns ``None`` during the warm-up period (before the first
window fills), after which it returns the decision object of the
underlying test.

When readings arrive in blocks, :meth:`OnlineOutlierDetector.process_many`
ingests them through the vectorised chain-sample/sketch fast path and
scores whole chunks with one batched range query per cached model --
producing the same decisions as the loop above at a fraction of the
cost (the ``bench`` package measures it).  Model refresh is change-driven: the
kernel model is rebuilt only when the chain sample's active elements
actually changed or the bandwidths drifted, not on a bare arrival
counter (see :meth:`repro.detectors._state.StreamModelState.model`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Sequence

import numpy as np

from repro._exceptions import ParameterError, SnapshotError
from repro._validation import require_positive_int
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, Kernel
from repro.core.mdef import MDEFDecision, MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import (
    DistanceOutlierDecision,
    DistanceOutlierSpec,
    is_distance_outlier,
)
from repro.detectors._state import StreamModelState, model_chunks

__all__ = ["OnlineOutlierDetector", "bandwidth_cap", "spec_from_state",
           "spec_state"]


def bandwidth_cap(spec: "DistanceOutlierSpec | MDEFSpec") -> "float | None":
    """The kernel-bandwidth cap a detector applying ``spec`` uses.

    MDEF probes density contrast at the counting-radius scale, so its
    bandwidth is capped there (see MGDDConfig.bandwidth_cap).
    """
    return 2.0 * spec.counting_radius if isinstance(spec, MDEFSpec) \
        else None


def spec_state(spec: "DistanceOutlierSpec | MDEFSpec") -> "dict[str, Any]":
    """An outlier spec as a tagged field dict (plain snapshot data)."""
    kind = "distance" if isinstance(spec, DistanceOutlierSpec) else "mdef"
    return {"kind": kind, **asdict(spec)}


def spec_from_state(state: "dict[str, Any]") -> "DistanceOutlierSpec | MDEFSpec":
    """Inverse of :func:`spec_state`."""
    fields = dict(state)
    kind = fields.pop("kind")
    if kind == "distance":
        return DistanceOutlierSpec(**fields)
    if kind == "mdef":
        return MDEFSpec(**fields)
    raise SnapshotError(f"unknown outlier-spec kind {kind!r}")


# repro-lint: shard-state
class OnlineOutlierDetector:
    """Online outlier detection for one sensor stream.

    Parameters
    ----------
    window_size:
        Sliding-window length ``|W|``.
    sample_size:
        Kernel sample slots ``|R|`` (the paper uses ``0.05 |W|``).
    spec:
        The outlier definition: distance-based or MDEF-based.
    warmup:
        Readings to observe before flagging; defaults to one window.
    model_refresh / epsilon / kernel / rng:
        Passed through to the underlying components.
    """

    def __init__(self, window_size: int, sample_size: int,
                 spec: "DistanceOutlierSpec | MDEFSpec", *,
                 n_dims: int = 1, warmup: int | None = None,
                 model_refresh: int = 32, epsilon: float = 0.2,
                 kernel: Kernel = EPANECHNIKOV,
                 bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None) -> None:
        require_positive_int("window_size", window_size)
        require_positive_int("sample_size", sample_size)
        if sample_size > window_size:
            raise ParameterError("sample_size cannot exceed window_size")
        if not isinstance(spec, (DistanceOutlierSpec, MDEFSpec)):
            raise ParameterError(
                "spec must be a DistanceOutlierSpec or an MDEFSpec, "
                f"got {type(spec).__name__}")
        if warmup is None:
            warmup = window_size
        elif warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {warmup}")
        self._spec = spec
        self._warmup = warmup
        self._window_size = window_size
        self._state = StreamModelState(
            window_size, sample_size, n_dims, epsilon=epsilon,
            model_refresh=model_refresh, kernel=kernel,
            bandwidth_cap=bandwidth_cap(spec),
            bandwidth_basis=bandwidth_basis, rng=rng)
        self._seen = 0
        self._flagged = 0
        self._mdef: "MDEFOutlierDetector | None" = None

    # ------------------------------------------------------------------

    @property
    def spec(self) -> "DistanceOutlierSpec | MDEFSpec":
        """The outlier definition in use."""
        return self._spec

    @property
    def readings_seen(self) -> int:
        """Total readings processed."""
        return self._seen

    @property
    def readings_flagged(self) -> int:
        """Total readings flagged as outliers."""
        return self._flagged

    @property
    def model_seq(self) -> int:
        """Version of the cached estimator (PR-9 lineage observational).

        Delegates to :attr:`repro.detectors._state.StreamModelState
        .model_seq`; never consulted by the decision path.
        """
        return self._state.model_seq

    @property
    def is_warm(self) -> bool:
        """Whether the warm-up period has completed."""
        return self._seen > self._warmup

    def model(self) -> "KernelDensityEstimator | None":
        """The current density model (None before enough data)."""
        self._state.count_window_size = min(self._seen, self._window_size)
        return self._state.model()

    def memory_words(self) -> int:
        """Logical footprint of all retained state, in 16-bit words."""
        return self._state.memory_words()

    # ------------------------------------------------------------------

    def process(self, value: "np.ndarray | Sequence[float] | float") -> "DistanceOutlierDecision | MDEFDecision | None":
        """Observe one reading; return a decision once warmed up."""
        point = np.asarray(value, dtype=float).reshape(-1)
        self._state.observe(point)
        self._seen += 1
        if self._seen <= self._warmup:
            return None
        model = self.model()
        if model is None:
            return None
        if isinstance(self._spec, DistanceOutlierSpec):
            decision = is_distance_outlier(model, point, self._spec)
        else:
            decision = self._mdef_detector(model).check(point)
        if decision.is_outlier:
            self._flagged += 1
        return decision

    def process_many(self, values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]") -> "list[DistanceOutlierDecision | MDEFDecision | None]":
        """Observe a block of readings; return one decision per reading.

        Equivalent to calling :meth:`process` on each reading in order
        (same chain-sample RNG consumption, same model refresh schedule,
        same decisions), but ingestion is vectorised and all readings
        that share a cached model are scored with a single batched range
        query.  Readings inside the warm-up period map to ``None``.
        """
        vals = np.asarray(values, dtype=float)
        n_dims = self._state.sample.n_dims
        if vals.ndim == 1:
            if n_dims != 1:
                raise ParameterError(
                    f"values must have shape (m, {n_dims}), got {vals.shape}")
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2 or vals.shape[1] != n_dims:
            raise ParameterError(
                f"values must have shape (m, {n_dims}), got {vals.shape}")
        m = vals.shape[0]
        decisions: "list[DistanceOutlierDecision | MDEFDecision | None]" = [None] * m
        for i, j, due in model_chunks(m, self._seen, self._warmup,
                                      self._state.arrivals_until_check):
            self._state.observe_many(vals[i:j])
            self._seen += j - i
            if due is None:
                continue
            cached = self._state.cached_model
            if not due:
                if cached is not None:
                    self._decide_batch(cached, vals[i:j], decisions, i)
                continue
            model = self.model()
            if model is cached and model is not None:
                # Clean check: the whole chunk shares one model.
                self._decide_batch(model, vals[i:j], decisions, i)
            else:
                if j - i > 1 and cached is not None:
                    self._decide_batch(cached, vals[i:j - 1], decisions, i)
                if model is not None:
                    self._decide_batch(model, vals[j - 1:j], decisions, j - 1)
        if self.is_warm:
            # process() resizes the count window at every warm reading,
            # not only at model checks; leave the state it would.
            self._state.count_window_size = min(self._seen, self._window_size)
        return decisions

    def _decide_batch(self, model: KernelDensityEstimator, points: np.ndarray,
                      decisions: list, offset: int) -> None:
        """Score ``points`` against one model via the vectorised range path."""
        if isinstance(self._spec, DistanceOutlierSpec):
            radius = self._spec.radius
            threshold = self._spec.count_threshold
            counts = model._range_probability_batch(
                points - radius, points + radius) * model.window_size
            flagged = 0
            # tolist() unboxes the whole batch at once; per-element
            # float()/bool() on numpy scalars costs ~10x more.
            for j, count in enumerate(counts.tolist()):
                outlier = count < threshold
                decisions[offset + j] = DistanceOutlierDecision(outlier, count)
                if outlier:
                    flagged += 1
            self._flagged += flagged
        else:
            detector = self._mdef_detector(model)
            for j, decision in enumerate(detector.check_many(points)):
                decisions[offset + j] = decision
                if decision.is_outlier:
                    self._flagged += 1

    def _mdef_detector(self, model: KernelDensityEstimator) -> MDEFOutlierDetector:
        """The MDEF detector over ``model``, kept while the model is cached.

        One detector per model object fills its cell-population table
        once per model instead of once per reading.  It is not
        snapshotted: a restored detector starts with an empty table.
        """
        if self._mdef is None or self._mdef.model is not model:
            self._mdef = MDEFOutlierDetector(model, self._spec)
        return self._mdef

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        The spec travels as a tagged field dict so the codec payload
        stays plain data (no pickled spec classes).
        """
        return {
            "spec": spec_state(self._spec),
            "warmup": self._warmup,
            "window_size": self._window_size,
            "state": self._state.snapshot_state(),
            "seen": self._seen,
            "flagged": self._flagged,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "OnlineOutlierDetector":
        """Rebuild a detector from a :meth:`snapshot_state` dict."""
        detector = cls.__new__(cls)
        detector._spec = spec_from_state(state["spec"])
        detector._warmup = int(state["warmup"])
        detector._window_size = int(state["window_size"])
        detector._state = StreamModelState.restore_state(state["state"])
        detector._seen = int(state["seen"])
        detector._flagged = int(state["flagged"])
        detector._mdef = None
        return detector
