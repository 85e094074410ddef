"""Exact ground truth for the accuracy experiments (Section 10).

The paper evaluates precision/recall against offline algorithms run "for
each instance of the sliding window": BruteForce-D for distance-based
outliers and BruteForce-M (aLOCI over the actual window contents) for
MDEF-based outliers.  Only the arrivals of a tick are new in its window
instance, so the truth runs the offline code of
:mod:`repro.core.baselines` on them alone:

* :class:`WindowBank` holds the precise sliding window of every node in
  the hierarchy (a node's window is the union of its descendant leaves'
  windows);
* :class:`DistanceTruth` labels arrivals with BruteForce-D's count
  against each node's window;
* :class:`GlobalMDEFTruth` labels arrivals with BruteForce-M against
  the root's window.

It also rebuilds the paper's offline *equi-depth histogram* comparison
models from the same exact windows (Section 10's histogram experiments
deliberately favour histograms by giving them the full window).
"""

from __future__ import annotations

import numpy as np

from repro._exceptions import ParameterError
from repro.core.baselines import chunked_neighbor_counts, mdef_outliers_against
from repro.core.histogram import EquiDepthHistogram
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.network.topology import Hierarchy
from repro.streams.window import SlidingWindow

__all__ = ["WindowBank", "DistanceTruth", "GlobalMDEFTruth"]


class WindowBank:
    """Exact sliding windows for every node of a hierarchy.

    ``mode`` selects the leader-window semantics (see
    :class:`~repro.detectors.d3.D3Config`): under ``"fixed"`` every node
    keeps the most recent ``|W|`` values of its combined subtree stream;
    under ``"union"`` a node at level ``l`` owns ``n_leaves_under x |W|``
    values -- the literal ``W_p`` of Theorem 3.  :meth:`insert_tick`
    feeds one reading per leaf.
    """

    def __init__(self, hierarchy: Hierarchy, window_size: int,
                 n_dims: int, mode: str = "fixed") -> None:
        if mode not in ("fixed", "union"):
            raise ParameterError(f"mode must be 'fixed' or 'union', got {mode!r}")
        self._hierarchy = hierarchy
        self._window_size = window_size
        self._n_dims = n_dims
        self._mode = mode
        self._leaf_index = {leaf: i for i, leaf in enumerate(hierarchy.leaf_ids)}
        self._windows: "dict[int, SlidingWindow]" = {}
        self._member_rows: "dict[int, np.ndarray]" = {}
        for node in hierarchy.parents:
            leaves = hierarchy.leaves_under(node)
            capacity = window_size if mode == "fixed" \
                else window_size * len(leaves)
            # A fixed window must hold at least one tick's arrivals.
            capacity = max(capacity, len(leaves))
            self._windows[node] = SlidingWindow(capacity, n_dims)
            self._member_rows[node] = np.array(
                [self._leaf_index[leaf] for leaf in leaves], dtype=np.int64)

    @property
    def window_size(self) -> int:
        """The per-leaf window length ``|W|``."""
        return self._window_size

    def insert_tick(self, arrivals: np.ndarray) -> None:
        """Insert one tick of readings, ``arrivals[i]`` from leaf ``i``."""
        if arrivals.shape != (len(self._leaf_index), self._n_dims):
            raise ParameterError(
                f"arrivals must have shape ({len(self._leaf_index)}, "
                f"{self._n_dims}), got {arrivals.shape}")
        for node, window in self._windows.items():
            window.extend(arrivals[self._member_rows[node]])

    def window_values(self, node: int) -> np.ndarray:
        """Exact current window contents of ``node``, oldest first."""
        return self._windows[node].values()

    def histogram(self, node: int, n_buckets: int) -> EquiDepthHistogram:
        """The paper's offline equi-depth histogram over a node's window."""
        values = self.window_values(node)
        return EquiDepthHistogram.from_values(values, n_buckets,
                                              window_size=max(1, values.shape[0]))


class DistanceTruth:
    """Exact per-arrival (D, r)-outlier labels at every hierarchy level."""

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 spec: DistanceOutlierSpec) -> None:
        self._bank = bank
        self._hierarchy = hierarchy
        self._spec = spec

    def labels_for_tick(self, arrivals: np.ndarray) -> "dict[int, np.ndarray]":
        """True-outlier mask of this tick's arrivals, per hierarchy level.

        Call *after* :meth:`WindowBank.insert_tick` so each arrival is
        judged against the window instance that contains it.  Returns
        ``{level: mask}`` with ``mask[i]`` labelling leaf ``i``'s arrival.
        """
        n_leaves = arrivals.shape[0]
        out: "dict[int, np.ndarray]" = {}
        for level_idx, tier in enumerate(self._hierarchy.levels):
            mask = np.zeros(n_leaves, dtype=bool)
            for node in tier:
                rows = self._bank._member_rows[node]
                counts = chunked_neighbor_counts(
                    self._bank.window_values(node), arrivals[rows],
                    self._spec.radius)
                mask[rows] = counts < self._spec.count_threshold
            out[level_idx + 1] = mask
        return out


class GlobalMDEFTruth:
    """Exact per-arrival MDEF labels against the global union window.

    MGDD judges deviations against the whole network's data, so the
    ground truth is BruteForce-M over the root's window, the union of
    all leaf windows: exact neighbour counts and cell populations of
    that window, by :func:`~repro.core.baselines.mdef_outliers_against`.
    """

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 spec: MDEFSpec) -> None:
        self._bank = bank
        self._spec = spec
        self._root = hierarchy.root_id

    def labels_for_tick(self, arrivals: np.ndarray) -> np.ndarray:
        """True MDEF-outlier mask of this tick's arrivals (global window).

        Call *after* :meth:`WindowBank.insert_tick`, as for
        :meth:`DistanceTruth.labels_for_tick`.
        """
        window = self._bank.window_values(self._root)
        neighbor_counts = chunked_neighbor_counts(
            window, arrivals, self._spec.counting_radius)
        return mdef_outliers_against(window, arrivals, neighbor_counts,
                                     self._spec)
