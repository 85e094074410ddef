"""Offline ground-truth outlier algorithms (paper Section 10, "Comparisons").

The paper evaluates precision and recall against exact offline detectors:

* **BruteForce-D** -- for every point in the window, count all other window
  points within range ``r`` and flag it when the count falls below ``t``.
  The naive implementation is ``O(d |W|^2)``; we additionally provide an
  exact accelerated path (a KD-tree under the Chebyshev metric, matching
  the paper's per-dimension interval geometry) so paper-scale windows stay
  tractable.  Both paths return identical answers (tested).

* **BruteForce-M** -- the aLOCI algorithm computed from the *actual*
  window contents: exact counting-neighbourhood populations and exact
  grid-cell populations, pushed through the same
  :func:`~repro.core.mdef.mdef_statistics` rule that the model-based
  detector uses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro._exceptions import ParameterError
from repro._validation import as_points
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.core.mdef import (
    MDEFDecision,
    MDEFSpec,
    _cells_in_ranges,
    cell_grid_centers,
    mdef_statistics,
    sampling_cell_ranges,
)
from repro.core.outliers import DistanceOutlierSpec

__all__ = [
    "chebyshev_neighbor_counts",
    "brute_force_distance_outliers",
    "brute_force_distance_outliers_naive",
    "brute_force_mdef_outliers",
]


def chebyshev_neighbor_counts(values: np.ndarray, queries: np.ndarray,
                              radius: float) -> np.ndarray:
    """Exact count of ``values`` within L-inf distance ``radius`` of each query.

    Uses a KD-tree with the Chebyshev metric; the count is inclusive of
    boundary points and of a query point itself when it is present in
    ``values``.
    """
    vals = as_points("values", values)
    qs = as_points("queries", queries, n_dims=vals.shape[1])
    if not np.isfinite(radius) or radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius!r}")
    tree = cKDTree(vals)
    return np.asarray(
        tree.query_ball_point(qs, r=radius, p=np.inf, return_length=True),
        dtype=np.int64)


def brute_force_distance_outliers(
        values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
        spec: DistanceOutlierSpec) -> np.ndarray:
    """Exact BruteForce-D: boolean outlier mask over the window ``values``.

    A window value is flagged when fewer than ``spec.count_threshold``
    window values (itself included) lie within ``spec.radius`` of it.
    """
    vals = as_points("values", values)
    counts = chebyshev_neighbor_counts(vals, vals, spec.radius)
    return counts < spec.count_threshold


def brute_force_distance_outliers_naive(
        values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
        spec: DistanceOutlierSpec, *,
        chunk_size: int = 512) -> np.ndarray:
    """The paper's naive ``O(d |W|^2)`` BruteForce-D, for cross-checking.

    Processes query points in chunks to bound the ``(chunk, n, d)``
    broadcast memory.
    """
    vals = as_points("values", values)
    n = vals.shape[0]
    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        block = vals[start:start + chunk_size]
        dists = np.abs(block[:, None, :] - vals[None, :, :]).max(axis=2)
        counts[start:start + chunk_size] = (dists <= spec.radius).sum(axis=1)
    return counts < spec.count_threshold


def _cell_indices(values: np.ndarray, spec: MDEFSpec, n_cells: int) -> np.ndarray:
    idx = np.floor(values / spec.cell_width).astype(np.int64)
    return np.clip(idx, 0, n_cells - 1)


def brute_force_mdef_outliers(
        values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
        spec: MDEFSpec, *,
        return_decisions: bool = False,
) -> "np.ndarray | tuple[np.ndarray, list[MDEFDecision]]":
    """Exact BruteForce-M: aLOCI over the actual window contents.

    For every window value: its exact counting-neighbourhood population
    (KD-tree, Chebyshev), the exact populations of the grid cells whose
    centres fall within the sampling radius, and the Equation 9 test via
    :func:`~repro.core.mdef.mdef_statistics`.

    Returns a boolean mask, or ``(mask, decisions)`` when
    ``return_decisions`` is set.
    """
    vals = as_points("values", values)
    n, d = vals.shape
    neighbor_counts = chebyshev_neighbor_counts(vals, vals, spec.counting_radius)

    n_cells = cell_grid_centers(spec).shape[0]
    grid = np.zeros((n_cells,) * d, dtype=np.int64)
    idx = _cell_indices(vals, spec, n_cells)
    np.add.at(grid, tuple(idx[:, j] for j in range(d)), 1)

    lo, hi = sampling_cell_ranges(vals, spec)
    # Points in blocks of at most BLOCK_CELLS sampling cells.
    step = max(1, BLOCK_CELLS // int((hi - lo).prod(axis=1).max(initial=1)))
    mask = np.empty(n, dtype=bool)
    decisions: "list[MDEFDecision]" = []
    for start in range(0, n, step):
        block = slice(start, start + step)
        sizes, cells = _cells_in_ranges(lo[block], hi[block])
        decided = mdef_statistics(neighbor_counts[block],
                                  grid[tuple(cells.T)], sizes, spec.k_sigma,
                                  min_mdef=spec.min_mdef)
        mask[block] = decided.is_outlier
        if return_decisions:
            decisions.extend(decided.tolist())
    if return_decisions:
        return mask, decisions
    return mask
