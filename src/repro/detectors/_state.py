"""Shared per-node estimator state for the distributed detectors.

Every node that approximates a distribution -- D3 leaves and parents,
MGDD leaves (their local sample) and leaders -- carries the same trio of
Section 5 components: a chain sample of its arrival stream, per-dimension
variance sketches, and a cached kernel model rebuilt at a bounded rate.
This module factors that trio out of the algorithm classes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError
from repro.core.bandwidth import scott_bandwidths
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, Kernel, kernel_by_name
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch

__all__ = ["StreamModelState", "ChildStalenessTracker", "arrivals_until_due",
           "model_chunks", "model_is_stale", "model_bandwidths"]

#: Check whether the cached kernel model is stale at most once per this
#: many arrivals (callers may override).  A due check rebuilds only when
#: the chain sample's active elements actually changed, the sketched
#: deviation drifted beyond ``bandwidth_tol``, or the count window was
#: resized; otherwise the previous estimator is reused as-is.
DEFAULT_MODEL_REFRESH = 16

#: Relative deviation drift that forces a rebuild at a due check even
#: when no sample slot changed (Scott bandwidths scale linearly with the
#: deviation, so this bounds the bandwidth staleness of a reused model).
DEFAULT_BANDWIDTH_TOL = 0.05


def default_min_arrivals(sample_size: int) -> int:
    """Arrivals before a model is built, unless the owner says otherwise."""
    return max(2, sample_size // 8)


# The refresh rule below is shared by StreamModelState (one node) and
# DetectorEngine (all its streams as arrays), so both build the same
# models at the same arrivals.

def arrivals_until_due(has_model: bool, arrivals: int, last_check: int,
                       min_arrivals: int, model_refresh: int) -> int:
    """Arrivals after which the next model check falls due (>= 1).

    Before the first model the check waits for ``min_arrivals``; after
    it, checks run ``model_refresh`` arrivals apart, counted from the
    last one (at arrival ``last_check``).
    """
    if not has_model:
        return max(1, min_arrivals - arrivals)
    return max(1, model_refresh - (arrivals - last_check))


def model_chunks(m: int, seen: int, warmup: int,
                 until_due: Callable[[], int],
                 ) -> "Iterator[tuple[int, int, bool | None]]":
    """Split a block of ``m`` arrivals into the chunks batched callers walk.

    ``seen`` arrivals came before the block, and readings are scored
    only after the first ``warmup``.  Yields ``(start, stop, due)`` for
    arrivals ``start:stop`` of the block: ``due`` is ``None`` for a
    warm-up chunk (observe only: no decisions and no model checks),
    ``False`` when every arrival of the chunk is scored against the
    current cached model, and ``True`` when a model check falls due at
    the chunk's last arrival (the others see the cache, the last one the
    checked model).  ``until_due`` is called after the caller has
    handled the previous chunk, so it reads the state as it now stands
    -- which reproduces the one-reading-at-a-time schedule exactly.
    """
    i = 0
    while i < m:
        if seen + i < warmup:
            k = min(warmup - seen - i, m - i)
            yield i, i + k, None
        else:
            until = until_due()
            k = min(m - i, until)
            yield i, i + k, k == until
        i += k


def model_is_stale(mutations: Any, built_mutations: Any, window_size: Any,
                   built_window_size: Any, std: np.ndarray,
                   built_std: np.ndarray, tol: float) -> Any:
    """Whether a due check must rebuild a cached model.

    It must when the sample changed (its mutation count moved), the
    count window was resized, or the sketched deviation drifted beyond
    relative ``tol`` in some dimension.  Works elementwise over leading
    stream axes (``std`` is ``(..., d)``), returning a bool per stream.
    """
    drifted = ~np.isclose(std, built_std, rtol=tol, atol=1e-12).all(axis=-1)
    return ((mutations != built_mutations)
            | (window_size != built_window_size) | drifted)


def model_bandwidths(std: np.ndarray, n_sample: int, window_size: int,
                     basis: str, cap: "float | None") -> np.ndarray:
    """Scott bandwidths of a model built from ``n_sample`` centres.

    ``basis`` picks Scott's ``n``: ``"window"`` uses the larger of the
    sample size and the count window, ``"sample"`` the sample size; the
    result is capped at ``cap`` when one is given.
    """
    n_basis = max(n_sample, window_size) if basis == "window" else n_sample
    bandwidths = scott_bandwidths(std, n_basis, std.shape[-1])
    if cap is not None:
        bandwidths = np.minimum(bandwidths, cap)
    return bandwidths


# repro-lint: shard-state
class StreamModelState:
    """Chain sample + variance sketches + cached kernel model for one node.

    Parameters
    ----------
    arrival_window:
        The node's window length measured in *its own arrivals* -- the
        stream length over which the chain sample stays uniform.  For a
        leaf this is ``|W|``; for a parent it is the expected number of
        forwarded values per window period (see the D3/MGDD builders).
    sample_size:
        Kernel sample slots ``|R|``.
    n_dims:
        Reading dimensionality.
    epsilon:
        Variance-sketch accuracy.
    min_arrivals:
        Arrivals required before :meth:`model` returns anything; guards
        against degenerate single-value models.
    model_refresh:
        Run the staleness check at most once per this many arrivals; the
        cached model is rebuilt only when the check finds an actual
        change (see :meth:`model`).
    bandwidth_tol:
        Relative drift of the sketched deviation that forces a rebuild
        at a due check even when no sample slot changed.
    bandwidth_cap:
        Optional upper bound on the kernel bandwidths (the MDEF test
        needs resolution at its counting-radius scale; see
        :class:`~repro.detectors.mgdd.MGDDConfig.bandwidth_cap`).
    bandwidth_basis:
        The ``n`` in Scott's rule: ``"window"`` (default -- the
        observation count the estimate represents, which reproduces the
        paper's reported accuracy) or ``"sample"`` (the formula as
        printed, ``|R|``).  See EXPERIMENTS.md.
    """

    def __init__(self, arrival_window: int, sample_size: int, n_dims: int, *,
                 epsilon: float = 0.2,
                 min_arrivals: int | None = None,
                 model_refresh: int = DEFAULT_MODEL_REFRESH,
                 bandwidth_tol: float = DEFAULT_BANDWIDTH_TOL,
                 kernel: Kernel = EPANECHNIKOV,
                 bandwidth_cap: "float | None" = None,
                 bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None) -> None:
        if model_refresh < 1:
            raise ParameterError(f"model_refresh must be >= 1, got {model_refresh}")
        if bandwidth_tol < 0:
            raise ParameterError(
                f"bandwidth_tol must be >= 0, got {bandwidth_tol!r}")
        if bandwidth_cap is not None and bandwidth_cap <= 0:
            raise ParameterError(
                f"bandwidth_cap must be positive, got {bandwidth_cap!r}")
        if bandwidth_basis not in ("window", "sample"):
            raise ParameterError(
                f"bandwidth_basis must be 'window' or 'sample', "
                f"got {bandwidth_basis!r}")
        self._bandwidth_basis = bandwidth_basis
        self._sample = ChainSample(arrival_window, sample_size, n_dims, rng=rng)
        self._sketch = MultiDimVarianceSketch(arrival_window, n_dims, epsilon)
        self._kernel = kernel
        self._bandwidth_cap = bandwidth_cap
        self._model_refresh = model_refresh
        self._bandwidth_tol = bandwidth_tol
        if min_arrivals is None:
            min_arrivals = default_min_arrivals(sample_size)
        self._min_arrivals = min_arrivals
        self._arrivals = 0
        self._last_check = -1
        self._cached: KernelDensityEstimator | None = None
        self._built_std: "np.ndarray | None" = None
        self._built_window_size = -1
        self._built_mutations = -1
        self._model_seq = 0
        #: |W| used to scale neighbourhood counts; set by the owner
        #: (leaf window, or the union-window size for leaders).
        self.count_window_size = arrival_window

    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Number of values observed so far."""
        return self._arrivals

    @property
    def sample(self) -> ChainSample:
        """The chain sample (exposed for memory accounting)."""
        return self._sample

    @property
    def sketch(self) -> MultiDimVarianceSketch:
        """The variance sketches (exposed for memory accounting)."""
        return self._sketch

    def observe(self, value: np.ndarray) -> "tuple[int, ...]":
        """Feed one arrival; return the sample slots it replaced.

        All or nothing: the sample validates the whole value first.
        """
        changed = self._sample.offer_detailed(value)
        self._sketch.insert(value)
        self._arrivals += 1
        return changed

    def observe_many(self, values: np.ndarray) -> np.ndarray:
        """Feed a block of arrivals; return the replaced-slot mask.

        Row ``t`` of the ``(m, |R|)`` boolean result marks the slots
        arrival ``t`` replaced.  Bit-identical to the equivalent
        sequence of :meth:`observe` calls (see
        :meth:`repro.streams.sampling.ChainSample.offer_many`), at a
        fraction of the per-arrival cost, and all or nothing like it.
        """
        changed = self._sample.offer_many(values)[0]
        self._sketch.insert_many(values)
        self._arrivals += changed.shape[0]
        return changed

    @property
    def model_seq(self) -> int:
        """Monotone rebuild counter: the version of :attr:`cached_model`.

        Bumps exactly when a :meth:`model` call constructs a new
        estimator, so a detection can cite the model version it
        consulted.  Never read by the decision path -- lineage is
        observational, so traced and untraced runs stay bit-identical.
        """
        return self._model_seq

    @property
    def cached_model(self) -> "KernelDensityEstimator | None":
        """The cached estimator as-is -- no staleness check, no rebuild.

        Batched callers evaluate whole chunks of readings against this
        between due checks (see :meth:`arrivals_until_check`).
        """
        return self._cached

    def arrivals_until_check(self) -> int:
        """Arrivals after which a :meth:`model` call may rebuild (>= 1).

        Until that many further arrivals have been observed, every
        :meth:`model` call is a pure read of :attr:`cached_model` (or of
        ``None`` before ``min_arrivals``), so a batched caller can
        observe a chunk of that size and score all but its last reading
        against the current cache -- reproducing the one-at-a-time
        schedule exactly.
        """
        return arrivals_until_due(self._cached is not None, self._arrivals,
                                  self._last_check, self._min_arrivals,
                                  self._model_refresh)

    def model(self) -> "KernelDensityEstimator | None":
        """The current kernel model, or None before ``min_arrivals``.

        Change-driven refresh: at most once per ``model_refresh``
        arrivals the cache is *checked*, and rebuilt only when the chain
        sample actually changed since the last build (any active element
        replaced, promoted or expired -- see
        :attr:`~repro.streams.sampling.ChainSample.mutation_count`), the
        sketched deviation drifted beyond ``bandwidth_tol``, or the owner
        resized ``count_window_size``.  A clean check reuses the previous
        estimator object and defers the next check by a full interval.
        """
        if self._arrivals < self._min_arrivals:
            return None
        if (self._cached is not None
                and self._arrivals - self._last_check < self._model_refresh):
            return self._cached
        if not self._sample.has_active():
            return None
        self._last_check = self._arrivals
        std = self._sketch.std()
        window_size = max(1, int(self.count_window_size))
        if self._cached is not None and not model_is_stale(
                self._sample.mutation_count, self._built_mutations,
                window_size, self._built_window_size, std, self._built_std,
                self._bandwidth_tol):
            return self._cached
        sample = self._sample.values()
        bandwidths = model_bandwidths(std, sample.shape[0], window_size,
                                      self._bandwidth_basis,
                                      self._bandwidth_cap)
        if obs.ACTIVE:
            # finally: a constructor that raises still emits its
            # rebuild event, so traces show failed builds too.
            t0 = time.perf_counter()
            try:
                self._cached = KernelDensityEstimator(
                    sample, stddev=std, bandwidths=bandwidths,
                    kernel=self._kernel, window_size=window_size)
            finally:
                obs.emit("estimator.rebuild",
                         sample_size=int(sample.shape[0]),
                         dur_s=time.perf_counter() - t0)
        else:
            self._cached = KernelDensityEstimator(
                sample, stddev=std, bandwidths=bandwidths,
                kernel=self._kernel, window_size=window_size)
        self._built_std = std
        self._built_window_size = window_size
        self._built_mutations = self._sample.mutation_count
        self._model_seq += 1
        return self._cached

    def memory_words(self) -> int:
        """Logical footprint of the sample and sketches, in words."""
        return self._sample.memory_words() + self._sketch.memory_words()

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        The cached estimator and the ``_built_*`` staleness fingerprints
        travel too: a restore must neither force a rebuild the original
        would not have run nor skip one it would, or the estimator cache
        schedule (and hence the detections) could diverge.
        """
        return {
            "bandwidth_basis": self._bandwidth_basis,
            "sample": self._sample.snapshot_state(),
            "sketch": self._sketch.snapshot_state(),
            "kernel": self._kernel.name,
            "bandwidth_cap": self._bandwidth_cap,
            "model_refresh": self._model_refresh,
            "bandwidth_tol": self._bandwidth_tol,
            "min_arrivals": self._min_arrivals,
            "arrivals": self._arrivals,
            "last_check": self._last_check,
            "cached": None if self._cached is None
            else self._cached.snapshot_state(),
            "built_std": None if self._built_std is None
            else self._built_std.copy(),
            "built_window_size": self._built_window_size,
            "built_mutations": self._built_mutations,
            "model_seq": self._model_seq,
            "count_window_size": self.count_window_size,
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "StreamModelState":
        """Rebuild the state trio from a :meth:`snapshot_state` dict."""
        model_state = cls.__new__(cls)
        model_state._bandwidth_basis = str(state["bandwidth_basis"])
        model_state._sample = ChainSample.restore_state(state["sample"])
        model_state._sketch = \
            MultiDimVarianceSketch.restore_state(state["sketch"])
        model_state._kernel = kernel_by_name(str(state["kernel"]))
        cap = state["bandwidth_cap"]
        model_state._bandwidth_cap = None if cap is None else float(cap)
        model_state._model_refresh = int(state["model_refresh"])
        model_state._bandwidth_tol = float(state["bandwidth_tol"])
        model_state._min_arrivals = int(state["min_arrivals"])
        model_state._arrivals = int(state["arrivals"])
        model_state._last_check = int(state["last_check"])
        cached = state["cached"]
        model_state._cached = None if cached is None \
            else KernelDensityEstimator.restore_state(cached)
        built_std = state["built_std"]
        model_state._built_std = None if built_std is None \
            else np.asarray(built_std, dtype=float).copy()
        model_state._built_window_size = int(state["built_window_size"])
        model_state._built_mutations = int(state["built_mutations"])
        # Pre-lineage snapshots lack the rebuild counter; restart at 0.
        model_state._model_seq = int(state.get("model_seq", 0))
        model_state.count_window_size = int(state["count_window_size"])
        return model_state


# repro-lint: shard-state
class ChildStalenessTracker:
    """Last-heard bookkeeping for a parent's direct children.

    Under faults (docs/FAULT_MODEL.md) a parent keeps its last-known
    estimator state built from child contributions, but must know how
    *stale* each child's contribution is: a child silent beyond the
    configured horizon is excluded from window-size scaling so the
    survivors' density estimate is normalised over the leaves actually
    reporting, instead of diluting counts by dead subtrees.

    Staleness of a child at ``tick`` is ``tick - last_heard``; a child
    never heard from counts as ``tick + 1`` (stale since before the
    run), so fresh deployments exclude a silent child once the horizon
    passes, exactly like a mid-run crash.
    """

    def __init__(self,
                 leaf_counts: "Mapping[int, int] | None" = None) -> None:
        #: child id -> number of leaf sensors in its subtree (1 for a
        #: leaf child); drives :meth:`active_leaf_count`.
        self._leaf_counts: "dict[int, int]" = \
            dict(leaf_counts) if leaf_counts else {}
        self._last_heard: "dict[int, int]" = {}

    def mark(self, child: int, tick: int) -> None:
        """Record that ``child`` was heard from at ``tick``."""
        self._last_heard[child] = tick

    def staleness(self, tick: int) -> "dict[int, int]":
        """Ticks since each child was last heard (never = ``tick + 1``)."""
        children = sorted(set(self._leaf_counts) | set(self._last_heard))
        return {child: tick - self._last_heard[child]
                if child in self._last_heard else tick + 1
                for child in children}

    def active_leaf_count(self, tick: int, horizon: int) -> int:
        """Leaf sensors under children whose staleness is <= ``horizon``."""
        total = 0
        for child, leaves in self._leaf_counts.items():
            last = self._last_heard.get(child)
            stale = tick - last if last is not None else tick + 1
            if stale <= horizon:
                total += leaves
        return total

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return {
            "leaf_counts": dict(self._leaf_counts),
            "last_heard": dict(self._last_heard),
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ChildStalenessTracker":
        """Rebuild a tracker from a :meth:`snapshot_state` dict."""
        tracker = cls(leaf_counts=state["leaf_counts"])
        tracker._last_heard = {int(child): int(tick)
                               for child, tick in state["last_heard"].items()}
        return tracker
