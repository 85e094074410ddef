"""Exact ground-truth machinery for the accuracy experiments (Section 10).

The paper evaluates precision/recall against offline algorithms run "for
each instance of the sliding window": BruteForce-D for distance-based
outliers and BruteForce-M (aLOCI over the actual window contents) for
MDEF-based outliers.  Re-running an offline detector from scratch at
every arrival is hopeless at paper scale, so this module maintains the
exact window contents *incrementally*:

* :class:`WindowBank` holds the precise sliding window of every node in
  the hierarchy (a node's window is the union of its descendant leaves'
  windows);
* :class:`DistanceTruth` labels arrivals by exact Chebyshev box counts
  against those windows -- equivalent to BruteForce-D at every arrival;
* :class:`GlobalMDEFTruth` maintains the exact cell-population grid of
  the global union window incrementally and labels arrivals with the
  same :func:`~repro.core.mdef.mdef_statistics` rule -- equivalent to
  BruteForce-M at every arrival.

It also rebuilds the paper's offline *equi-depth histogram* comparison
models from the same exact windows (Section 10's histogram experiments
deliberately favour histograms by giving them the full window).
"""

from __future__ import annotations

import numpy as np

from repro._exceptions import ParameterError
from repro.core.histogram import EquiDepthHistogram
from repro.core.mdef import (
    MDEFSpec,
    _cells_in_ranges,
    cell_grid_centers,
    mdef_statistics,
    sampling_cell_ranges,
)
from repro.core.outliers import DistanceOutlierSpec
from repro.network.topology import Hierarchy

__all__ = ["NodeWindow", "WindowBank", "DistanceTruth", "GlobalMDEFTruth"]


class NodeWindow:
    """A ring buffer of exact window contents with batch insert."""

    def __init__(self, capacity: int, n_dims: int) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self._buffer = np.empty((capacity, n_dims), dtype=float)
        self._capacity = capacity
        self._count = 0
        self._next = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, values: np.ndarray) -> np.ndarray:
        """Insert a batch ``(k, d)``; return the evicted values ``(j, d)``."""
        k = values.shape[0]
        if k > self._capacity:
            raise ParameterError("batch larger than the window capacity")
        evicted = []
        if self._count == self._capacity and k:
            # The k oldest entries are the ones about to be overwritten.
            idx = (self._next + np.arange(k)) % self._capacity
            evicted = self._buffer[idx].copy()
        end = self._next + k
        if end <= self._capacity:
            self._buffer[self._next:end] = values
        else:
            split = self._capacity - self._next
            self._buffer[self._next:] = values[:split]
            self._buffer[:end - self._capacity] = values[split:]
        self._next = end % self._capacity
        self._count = min(self._count + k, self._capacity)
        if len(evicted):
            return evicted
        return np.empty((0, values.shape[1]))

    def values(self) -> np.ndarray:
        """Current contents (order unspecified), shape ``(len, d)``."""
        if self._count < self._capacity:
            return self._buffer[:self._count]
        return self._buffer


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
        self._windows: "dict[int, NodeWindow]" = {}
        self._member_rows: "dict[int, np.ndarray]" = {}
        for node in hierarchy.parents:
            leaves = hierarchy.leaves_under(node)
            capacity = window_size if mode == "fixed" \
                else window_size * len(leaves)
            # A fixed window must hold at least one tick's arrivals.
            capacity = max(capacity, len(leaves))
            self._windows[node] = NodeWindow(capacity, n_dims)
            self._member_rows[node] = np.array(
                [self._leaf_index[leaf] for leaf in leaves], dtype=np.int64)
        #: Optional eviction listeners, called as listener(node, evicted).
        self.eviction_listeners: "list" = []

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
            evicted = window.insert(arrivals[self._member_rows[node]])
            if len(evicted) and self.eviction_listeners:
                for listener in self.eviction_listeners:
                    listener(node, evicted)

    def window_values(self, node: int) -> np.ndarray:
        """Exact current window contents of ``node``."""
        return self._windows[node].values()

    def histogram(self, node: int, n_buckets: int) -> EquiDepthHistogram:
        """The paper's offline equi-depth histogram over a node's window."""
        values = self.window_values(node)
        return EquiDepthHistogram.from_values(values, n_buckets,
                                              window_size=max(1, values.shape[0]))


class DistanceTruth:
    """Exact per-arrival (D, r)-outlier labels at every hierarchy level."""

    #: Chunk bound on (query, window-point) pairs per vectorised block.
    _MAX_PAIR_BLOCK = 2_000_000

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 spec: DistanceOutlierSpec) -> None:
        self._bank = bank
        self._hierarchy = hierarchy
        self._spec = spec

    def _counts_against(self, node: int, queries: np.ndarray) -> np.ndarray:
        window = self._bank.window_values(node)
        if window.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.int64)
        counts = np.zeros(queries.shape[0], dtype=np.int64)
        chunk = max(1, self._MAX_PAIR_BLOCK // max(1, queries.shape[0]))
        for start in range(0, window.shape[0], chunk):
            block = window[start:start + chunk]
            dists = np.abs(queries[:, None, :] - block[None, :, :]).max(axis=2)
            counts += (dists <= self._spec.radius).sum(axis=1)
        return counts

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
                counts = self._counts_against(node, arrivals[rows])
                mask[rows] = counts < self._spec.count_threshold
            out[level_idx + 1] = mask
        return out


class GlobalMDEFTruth:
    """Exact per-arrival MDEF labels against the global union window.

    MGDD judges deviations against the whole network's data, so the
    ground truth is BruteForce-M over the union of all leaf windows.
    The cell-population grid is maintained incrementally from the root
    window's inserts and evictions; neighbour counts are computed
    exactly against the root window.
    """

    def __init__(self, bank: WindowBank, hierarchy: Hierarchy,
                 spec: MDEFSpec) -> None:
        self._bank = bank
        self._hierarchy = hierarchy
        self._spec = spec
        self._root = hierarchy.root_id
        self._n_cells = n_cells = cell_grid_centers(spec).shape[0]
        n_dims = bank.window_values(self._root).shape[1]
        self._n_dims = n_dims
        self._grid = np.zeros((n_cells,) * n_dims, dtype=np.int64)
        bank.eviction_listeners.append(self._on_evict)

    # -- incremental grid maintenance ----------------------------------

    def _cell_idx(self, values: np.ndarray) -> "tuple[np.ndarray, ...]":
        idx = np.floor(values / self._spec.cell_width).astype(np.int64)
        np.clip(idx, 0, self._n_cells - 1, out=idx)
        return tuple(idx[:, j] for j in range(self._n_dims))

    def record_insert(self, arrivals: np.ndarray) -> None:
        """Account this tick's arrivals in the global cell grid.

        Call once per tick, *before* :meth:`WindowBank.insert_tick` or
        after -- the eviction listener keeps the grid in sync either way
        as long as inserts are recorded exactly once.
        """
        np.add.at(self._grid, self._cell_idx(arrivals), 1)

    def _on_evict(self, node: int, evicted: np.ndarray) -> None:
        if node != self._root:
            return
        np.add.at(self._grid, self._cell_idx(evicted), -1)

    # -- labelling ------------------------------------------------------

    def _neighbor_counts(self, queries: np.ndarray) -> np.ndarray:
        window = self._bank.window_values(self._root)
        counts = np.zeros(queries.shape[0], dtype=np.int64)
        chunk = max(1, DistanceTruth._MAX_PAIR_BLOCK // max(1, queries.shape[0]))
        for start in range(0, window.shape[0], chunk):
            block = window[start:start + chunk]
            dists = np.abs(queries[:, None, :] - block[None, :, :]).max(axis=2)
            counts += (dists <= self._spec.counting_radius).sum(axis=1)
        return counts

    def labels_for_tick(self, arrivals: np.ndarray) -> np.ndarray:
        """True MDEF-outlier mask of this tick's arrivals (global window).

        Call after the arrivals are present in both the window bank and
        the cell grid.
        """
        neighbor_counts = self._neighbor_counts(arrivals)
        sizes, cells = _cells_in_ranges(
            *sampling_cell_ranges(arrivals, self._spec))
        return mdef_statistics(neighbor_counts, self._grid[tuple(cells.T)],
                               sizes, self._spec.k_sigma,
                               min_mdef=self._spec.min_mdef).is_outlier
