"""Kernel density estimation over sliding-window samples (paper Sections 4-5).

The estimator approximates the unknown distribution ``f(x)`` of the values
in a sliding window from (i) a uniform random sample ``R`` of the window
(maintained online by :class:`repro.streams.sampling.ChainSample`) and
(ii) the per-dimension standard deviation (maintained online by
:class:`repro.streams.variance.MultiDimVarianceSketch`), which drives
Scott's bandwidth rule.

The central query is the *range probability* of Equation 5,

    P(low, high) = 1/|R| * sum_{t in R} Integral_{[low, high]} k(x - t) dx,

from which the paper derives the windowed neighbourhood count of
Equation 4, ``N(p, r) = P[p - r, p + r] * |W|``, used by both the
distance-based (Section 7) and the MDEF-based (Section 8) outlier tests.

Every query evaluates Eq. 5 one way: the fused, cache-blocked numpy
kernels of :mod:`repro.core._kernels_numpy`, in ``O(d |R|)`` per box
(Theorem 2).  Batches of boxes (the MDEF test issues ``1/(2 alpha r)`` of
them at once) and stacks of models go to the dense kernel.  A single box
takes Theorem 2's pruned path: :class:`repro.core.indexes.SortedSampleIndex`
selects the centres within the kernel's reach of the box in
``O(d log|R|)``, only their terms are evaluated, and the row of all
``|R|`` terms is reduced as the dense kernel reduces it -- so a single
box, a batch row and a stacked row answer one count bit for bit.
Unbounded kernels (infinite ``support_radius``) keep the dense one-row
call.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro._exceptions import EmptyModelError, ParameterError
from repro._rng import resolve_rng
from repro._validation import as_point, as_points
from repro import _sanitize, obs
from repro.core import _kernels_numpy as _kernels
from repro.core.bandwidth import scott_bandwidths
from repro.core.indexes import SortedSampleIndex
from repro.core.kernels import EPANECHNIKOV, Kernel, kernel_by_name

__all__ = ["KernelDensityEstimator", "merge_estimators", "range_probabilities"]


#: Relative widening of a kernel's reach when pruning a box's centres,
#: far above the few ulps by which ``z = (bound - centre) / bandwidth``
#: is rounded, so every centre left out has an exact-zero term.  It only
#: admits extra candidates, whose terms are the dense kernel's.
_REACH_MARGIN = 1e-9


def range_probabilities(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                        centers: np.ndarray,
                        bandwidths: np.ndarray) -> np.ndarray:
    """Eq. 5 box probabilities through the fused kernels, in ``[0, 1]``.

    One model: ``(m, d)`` boxes against ``(n, d)`` centres and ``(d,)``
    bandwidths give ``(m,)`` probabilities.  A stack of ``S`` models of
    equal size: ``(S, m, d)`` boxes against ``(S, n, d)`` centres and
    ``(S, d)`` bandwidths give ``(S, m)``, every row equal to its
    model's own call.
    """
    run = _kernels.range_batch if lows.ndim == 2 \
        else _kernels.range_batch_stacked
    inv_bw = 1.0 / bandwidths
    return _range_query(lows.shape[:-1], lambda out: run(
        kernel, lows, highs, centers, inv_bw, out, _kernels.BLOCK_CELLS))


def _range_query(shape: "tuple[int, ...]",
                 fill: "Callable[[np.ndarray], None]") -> np.ndarray:
    """The Eq. 5 probabilities ``fill`` writes into an array of ``shape``,
    sanitised and clipped to ``[0, 1]``; every range query's latency is
    observed here once, a failing one's (e.g. a sanitizer trip) too."""
    t0 = time.perf_counter() if obs.ACTIVE else 0.0
    try:
        out = np.empty(shape, dtype=float)
        fill(out)
        if _sanitize.ACTIVE:
            _sanitize.check_probabilities(out, label="range_probability")
        # Clamp tiny negative values from floating point cancellation.
        return out.clip(0.0, 1.0)
    finally:
        if obs.ACTIVE:
            obs.metrics().histogram("estimator.range_query.latency").observe(
                time.perf_counter() - t0)


# repro-lint: shard-state
class KernelDensityEstimator:
    """Non-parametric density model of a sliding window of sensor readings.

    Parameters
    ----------
    sample:
        Array of shape ``(n, d)`` (or ``(n,)`` for 1-d data) with the
        kernel centres -- a uniform random sample of the window.
    stddev:
        Per-dimension standard deviation of the *window* (not just the
        sample).  Used by the bandwidth rule.  Defaults to the sample's
        own standard deviation when omitted.
    bandwidths:
        Explicit per-dimension bandwidths; overrides ``stddev``.
    kernel:
        Smoothing kernel; defaults to the paper's Epanechnikov kernel.
    window_size:
        ``|W|``, the number of values the window holds.  Neighbourhood
        counts are scaled by this.  Defaults to the sample size.
    bandwidth_n:
        The observation count fed to Scott's rule.  Defaults to the
        sample size ``|R|`` -- the paper's formula as printed
        (Section 4).  The online detectors pass the *window* size
        instead: the estimate represents ``|W|`` observations, the
        narrower bandwidth resolves outlier-scale structure, and it is
        what reproduces the paper's reported accuracy (see
        EXPERIMENTS.md).  Ignored when ``bandwidths`` is explicit.
    """

    def __init__(self, sample: "np.ndarray | Sequence[float]", *,
                 stddev: "float | np.ndarray | None" = None,
                 bandwidths: "float | np.ndarray | None" = None,
                 kernel: Kernel = EPANECHNIKOV,
                 window_size: int | None = None,
                 bandwidth_n: int | None = None) -> None:
        points = as_points("sample", sample)
        if points.shape[0] == 0:
            raise EmptyModelError("cannot build a density model from an empty sample")
        self._sample = points
        self._n, self._d = points.shape
        self._kernel = kernel
        if window_size is None:
            window_size = self._n
        if window_size < 1:
            raise ParameterError(f"window_size must be >= 1, got {window_size}")
        self._window_size = int(window_size)

        if bandwidths is not None:
            bw = np.atleast_1d(np.asarray(bandwidths, dtype=float))
            if bw.shape != (self._d,):
                raise ParameterError(
                    f"bandwidths must have shape ({self._d},), got {bw.shape}")
            if not (np.isfinite(bw).all() and (bw > 0).all()):
                raise ParameterError("bandwidths must be positive and finite")
            self._bandwidths = bw
        else:
            if stddev is None:
                stddev = points.std(axis=0)
            elif np.ndim(stddev) > 1:
                raise ParameterError(f"stddev must be scalar or 1-d, got "
                                     f"shape {np.shape(stddev)}")
            if bandwidth_n is None:
                bandwidth_n = self._n
            elif bandwidth_n < 1:
                raise ParameterError(
                    f"bandwidth_n must be >= 1, got {bandwidth_n}")
            self._bandwidths = scott_bandwidths(stddev, bandwidth_n, self._d)
        if _sanitize.ACTIVE:
            _sanitize.check_bandwidths(self._bandwidths,
                                       label="KernelDensityEstimator")
        # Window deviation as supplied (None when only bandwidths were
        # given); retained for pooled-variance merging (Section 5.1).
        self._stddev = None if stddev is None \
            else np.broadcast_to(np.atleast_1d(
                np.asarray(stddev, dtype=float)), (self._d,)).copy()

        # Per-dimension sorted index for Theorem 2's pruned single-box
        # queries; built lazily on the first such query, so models that
        # only serve batch queries never pay the sort.
        self._index: "SortedSampleIndex | None" = None
        #: The kernel's widened reach per dimension; None for an
        #: unbounded kernel, whose single boxes take the dense call.
        radius = kernel.support_radius
        self._reach: "np.ndarray | None" = \
            self._bandwidths * (radius * (1.0 + _REACH_MARGIN)) \
            if math.isfinite(radius) else None
        self._inv_bw = 1.0 / self._bandwidths
        # Chain samples hold duplicates (with-replacement semantics); the
        # distinct count is what estimation-variance corrections need.
        # np.unique(axis=0) sorts the sample, so it is computed lazily:
        # online rebuilds that only serve distance queries never pay it.
        self._distinct: "int | None" = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sample(self) -> np.ndarray:
        """The kernel centres, shape ``(n, d)`` (read-only view)."""
        view = self._sample.view()
        view.flags.writeable = False
        return view

    @property
    def sample_size(self) -> int:
        """Number of kernel centres ``|R|``."""
        return self._n

    @property
    def distinct_sample_size(self) -> int:
        """Number of *distinct* kernel centres (chain samples duplicate).

        Computed lazily on first access and cached: only the MDEF
        variance correction needs it, and the ``np.unique(axis=0)`` it
        requires is the most expensive step of constructing a model.
        """
        if self._distinct is None:
            self._distinct = int(np.unique(self._sample, axis=0).shape[0])
        return self._distinct

    @property
    def stddev(self) -> "np.ndarray | None":
        """The per-dimension window deviation this model was built with.

        ``None`` when the model was constructed from explicit bandwidths
        without a deviation estimate; :func:`merge_estimators` then falls
        back to the sample's own deviation for that member.
        """
        return None if self._stddev is None else self._stddev.copy()

    @property
    def n_dims(self) -> int:
        """Data dimensionality ``d``."""
        return self._d

    @property
    def bandwidths(self) -> np.ndarray:
        """Per-dimension kernel bandwidths ``B_i``."""
        return self._bandwidths.copy()

    @property
    def kernel(self) -> Kernel:
        """The smoothing kernel in use."""
        return self._kernel

    @property
    def window_size(self) -> int:
        """The window size ``|W|`` that scales neighbourhood counts."""
        return self._window_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KernelDensityEstimator(n={self._n}, d={self._d}, "
                f"kernel={self._kernel.name!r}, |W|={self._window_size})")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_window(cls, values: "np.ndarray | Sequence[float]",
                    sample_size: int | None = None, *,
                    rng: np.random.Generator | None = None,
                    kernel: Kernel = EPANECHNIKOV) -> "KernelDensityEstimator":
        """Build an estimator offline from the full window contents.

        Draws a uniform sample of ``sample_size`` values without
        replacement (all values when ``sample_size`` is omitted or not
        smaller than the window) and uses the window's exact standard
        deviation.  This mirrors what the streaming components converge
        to and is convenient for tests and examples.
        """
        points = as_points("values", values)
        if points.shape[0] == 0:
            raise EmptyModelError("cannot build a density model from an empty window")
        window_size = points.shape[0]
        if sample_size is None or sample_size >= window_size:
            sample = points
        else:
            if sample_size < 1:
                raise ParameterError(f"sample_size must be >= 1, got {sample_size}")
            rng = resolve_rng(rng)
            idx = rng.choice(window_size, size=sample_size, replace=False)
            sample = points[idx]
        return cls(sample, stddev=points.std(axis=0), kernel=kernel,
                   window_size=window_size)

    # ------------------------------------------------------------------
    # Density / probability queries
    # ------------------------------------------------------------------

    def pdf(self, points: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Estimated density ``f(x)`` (Equation 1) at each query point.

        Accepts shape ``(m, d)`` or ``(m,)`` for 1-d data; returns ``(m,)``.
        """
        queries = as_points("points", points, n_dims=self._d)
        out = np.empty(queries.shape[0], dtype=float)
        _kernels.pdf_batch(self._kernel, queries, self._sample, self._inv_bw,
                           self._inv_bw.prod() / self._n, out,
                           _kernels.BLOCK_CELLS)
        return out

    def range_probability(self, low: "np.ndarray | Sequence[float] | float",
                          high: "np.ndarray | Sequence[float] | float") -> "float | np.ndarray":
        """Probability mass of the axis-aligned box ``[low, high]`` (Eq. 5).

        ``low``/``high`` may be single points (``(d,)`` or scalars for 1-d
        data), returning a float, or batches ``(m, d)``, returning ``(m,)``.
        A single box takes Theorem 2's pruned path (the dense one-row call
        for an unbounded kernel); either way the answer is the batch
        row's, bit for bit.
        """
        low_arr = np.asarray(low, dtype=float)
        high_arr = np.asarray(high, dtype=float)
        batched = low_arr.ndim == 2 or high_arr.ndim == 2
        if batched:
            lows = as_points("low", low_arr, n_dims=self._d)
            highs = as_points("high", high_arr, n_dims=self._d)
            if lows.shape != highs.shape:
                raise ParameterError("low and high batches must have equal shapes")
            return self._range_probability_batch(lows, highs)
        low_pt = as_point("low", low_arr, self._d)
        high_pt = as_point("high", high_arr, self._d)
        if (high_pt < low_pt).any():
            raise ParameterError("each high must be >= the corresponding low")
        lows, highs = low_pt[None, :], high_pt[None, :]
        reach = self._reach
        if reach is None:
            return float(range_probabilities(self._kernel, lows, highs,
                                             self._sample,
                                             self._bandwidths)[0])
        if self._index is None:
            self._index = SortedSampleIndex(self._sample)
        candidates = self._index.candidates(low_pt - reach, high_pt + reach)
        return float(_range_query((1,), lambda out: _kernels.range_pruned(
            self._kernel, lows, highs, self._sample, self._inv_bw, out,
            candidates))[0])

    def _range_probability_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        if (highs < lows).any():
            raise ParameterError("each high must be >= the corresponding low")
        return range_probabilities(self._kernel, lows, highs, self._sample,
                                   self._bandwidths)

    def neighborhood_count(self, p: "np.ndarray | Sequence[float] | float",
                           r: float) -> "float | np.ndarray":
        """Estimated number of window values within ``r`` of ``p`` (Eq. 4).

        ``N(p, r) = P[p - r, p + r] * |W|`` with the box interpreted per
        dimension.  ``p`` may be a single point or a batch ``(m, d)``.
        """
        if not np.isfinite(r) or r <= 0:
            raise ParameterError(f"r must be a positive finite number, got {r!r}")
        p_arr = np.asarray(p, dtype=float)
        prob = self.range_probability(p_arr - r, p_arr + r)
        return prob * self._window_size

    # ------------------------------------------------------------------
    # Grid summaries (for divergence computations, Section 6)
    # ------------------------------------------------------------------

    def interval_probabilities(self, edges: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Probability mass of each 1-d interval between consecutive edges.

        Only valid for 1-d models; returns ``len(edges) - 1`` masses.
        """
        if self._d != 1:
            raise ParameterError("interval_probabilities requires a 1-d model")
        edge_arr = np.asarray(edges, dtype=float)
        if edge_arr.ndim != 1 or edge_arr.shape[0] < 2:
            raise ParameterError("edges must be a 1-d array with at least two entries")
        if (np.diff(edge_arr) <= 0).any():
            raise ParameterError("edges must be strictly increasing")
        diffs = _kernels.cdf_diff_rows(
            self._kernel, edge_arr, self._sample[:, 0],
            self._bandwidths[0])                # (n, k)
        masses = diffs.mean(axis=0)
        if _sanitize.ACTIVE:
            _sanitize.check_mass(masses, label="interval_probabilities")
        return np.clip(masses, 0.0, 1.0)

    def grid_probabilities(self, cells_per_dim: int,
                           low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Probability mass of each cell of a uniform grid over ``[low, high]^d``.

        Returns an array of shape ``(cells_per_dim,) * d``.  Used by the
        Jensen-Shannon divergence estimate of Equation 8.
        """
        if cells_per_dim < 1:
            raise ParameterError(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        if not high > low:
            raise ParameterError("high must exceed low")
        edges = np.linspace(low, high, cells_per_dim + 1)
        # Per-dimension CDF difference matrices, each (n, k).
        per_dim = [_kernels.cdf_diff_rows(self._kernel, edges,
                                          self._sample[:, j],
                                          self._bandwidths[j])
                   for j in range(self._d)]
        if self._d == 1:
            cells = per_dim[0].mean(axis=0)
        elif self._d == 2:
            cells = np.einsum("nk,nl->kl", per_dim[0], per_dim[1]) / self._n
        elif self._d == 3:
            cells = np.einsum("nk,nl,nm->klm", per_dim[0], per_dim[1],
                              per_dim[2]) / self._n
        else:
            # General (rare) case: accumulate outer products sample by sample.
            shape = (cells_per_dim,) * self._d
            cells = np.zeros(shape)
            for i in range(self._n):
                outer = per_dim[0][i]
                for j in range(1, self._d):
                    outer = np.multiply.outer(outer, per_dim[j][i])
                cells += outer
            cells /= self._n
        if _sanitize.ACTIVE:
            _sanitize.check_mass(cells, label="grid_probabilities")
        return np.clip(cells, 0.0, 1.0)

    def mean(self) -> np.ndarray:
        """Mean of the estimated distribution (= sample mean for symmetric kernels)."""
        return self._sample.mean(axis=0)

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        Only the model inputs travel: kernel centres, bandwidths, window
        deviation and the kernel's registry name.  The lazy query caches
        (``_index``, ``_distinct``) are rebuilt deterministically
        from the sample on demand, so dropping them cannot change any
        restored query result.
        """
        return {
            "sample": self._sample.copy(),
            "bandwidths": self._bandwidths.copy(),
            "stddev": None if self._stddev is None else self._stddev.copy(),
            "kernel": self._kernel.name,
            "window_size": self._window_size,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "KernelDensityEstimator":
        """Rebuild an estimator from a :meth:`snapshot_state` dict.

        Reconstructs through ``__init__`` with explicit bandwidths (so no
        bandwidth rule is re-run), then reinstates the recorded window
        deviation, which explicit-bandwidth construction does not thread.
        """
        stddev = state["stddev"]
        model = cls(np.asarray(state["sample"], dtype=float),
                    bandwidths=np.asarray(state["bandwidths"], dtype=float),
                    kernel=kernel_by_name(str(state["kernel"])),
                    window_size=int(state["window_size"]))
        model._stddev = None if stddev is None \
            else np.asarray(stddev, dtype=float).copy()
        return model


def merge_estimators(estimators: Iterable[KernelDensityEstimator], *,
                     window_size: int | None = None) -> KernelDensityEstimator:
    """Combine several kernel models into one (paper Section 5.1).

    Kernel estimators "can easily be combined": the union of the samples,
    weighted implicitly by sample size, is itself a sample of the union of
    the windows.  The merged deviation pools the members' window
    deviations by the law of total variance over the member windows,

        var = sum_i w_i (sigma_i^2 + (mu_i - mu)^2) / sum_i w_i,

    with ``w_i`` the member window sizes, ``sigma_i`` the deviation each
    member was built with (its sample deviation when unavailable) and
    ``mu_i`` its mean -- so merging models of disjoint windows recovers
    the exact union-window deviation, which re-deriving the deviation
    from the concatenated (size-biased) sample does not.  ``window_size``
    defaults to the sum of the members' window sizes (the union-window
    semantics of Theorem 3).
    """
    models = list(estimators)
    if not models:
        raise EmptyModelError("cannot merge zero estimators")
    dims = {m.n_dims for m in models}
    if len(dims) != 1:
        raise ParameterError(f"estimators disagree on dimensionality: {sorted(dims)}")
    kernels = {m.kernel.name for m in models}
    if len(kernels) != 1:
        raise ParameterError(f"estimators disagree on kernel: {sorted(kernels)}")
    sample = np.concatenate([m.sample for m in models], axis=0)
    weights = np.array([m.window_size for m in models], dtype=float)
    means = np.stack([m.mean() for m in models], axis=0)
    sigmas = np.stack(
        [m.stddev if m.stddev is not None else m.sample.std(axis=0)
         for m in models], axis=0)
    total = weights.sum()
    pooled_mean = (weights[:, None] * means).sum(axis=0) / total
    pooled_var = (weights[:, None]
                  * (sigmas**2 + (means - pooled_mean)**2)).sum(axis=0) / total
    if window_size is None:
        window_size = int(total)
    return KernelDensityEstimator(
        sample, stddev=np.sqrt(pooled_var), kernel=models[0].kernel,
        window_size=window_size)
