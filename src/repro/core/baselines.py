"""Offline ground-truth outlier algorithms (paper Section 10, "Comparisons").

The paper evaluates precision and recall against exact offline detectors,
run for each instance of the sliding window:

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

The accuracy harness's ground truth (:mod:`repro.eval.truth`) labels each
tick's arrivals with this code: :func:`chunked_neighbor_counts` against
every node's window, and :func:`mdef_outliers_against` the global one.
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
    "chunked_neighbor_counts",
    "brute_force_distance_outliers",
    "brute_force_distance_outliers_naive",
    "brute_force_mdef_outliers",
    "mdef_outliers_against",
]


def chebyshev_neighbor_counts(values: np.ndarray, queries: np.ndarray,
                              radius: float) -> np.ndarray:
    """Exact count of ``values`` within L-inf distance ``radius`` of each query.

    Uses a KD-tree with the Chebyshev metric; the count is inclusive of
    boundary points and of a query point itself when it is present in
    ``values``.  Building the tree pays off for all-against-all counts;
    :func:`chunked_neighbor_counts` suits a few queries.
    """
    vals = as_points("values", values)
    qs = as_points("queries", queries, n_dims=vals.shape[1])
    if not np.isfinite(radius) or radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius!r}")
    tree = cKDTree(vals)
    return np.asarray(
        tree.query_ball_point(qs, r=radius, p=np.inf, return_length=True),
        dtype=np.int64)


#: Bound on (query, value) pairs per block of :func:`chunked_neighbor_counts`.
_MAX_PAIR_BLOCK = 2_000_000


def chunked_neighbor_counts(values: np.ndarray, queries: np.ndarray,
                            radius: float, *,
                            chunk_size: "int | None" = None) -> np.ndarray:
    """The same count as :func:`chebyshev_neighbor_counts`, by direct comparison.

    Compares blocks of ``chunk_size`` queries (by default as many as keep
    a block within ``_MAX_PAIR_BLOCK`` pairs) against every value:
    ``O(d m n)`` work with no index to build, the cheaper choice for a
    tick's arrivals against a window.  ``values`` is ``(n, d)`` and may
    be empty; ``queries`` is ``(m, d)``.
    """
    if chunk_size is None:
        chunk_size = max(1, _MAX_PAIR_BLOCK // max(1, values.shape[0]))
    counts = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], chunk_size):
        block = queries[start:start + chunk_size]
        dists = np.abs(block[:, None, :] - values[None, :, :]).max(axis=2)
        counts[start:start + chunk_size] = (dists <= radius).sum(axis=1)
    return counts


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

    Processes query points in chunks of ``chunk_size`` to bound the
    ``(chunk, n, d)`` broadcast memory.
    """
    vals = as_points("values", values)
    counts = chunked_neighbor_counts(vals, vals, spec.radius,
                                     chunk_size=chunk_size)
    return counts < spec.count_threshold


def brute_force_mdef_outliers(
        values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
        spec: MDEFSpec, *,
        return_decisions: bool = False,
) -> "np.ndarray | tuple[np.ndarray, list[MDEFDecision]]":
    """Exact BruteForce-M: aLOCI over the actual window contents.

    For every window value: its exact counting-neighbourhood population
    (KD-tree, Chebyshev), then :func:`mdef_outliers_against` the window.

    Returns a boolean mask, or ``(mask, decisions)`` when
    ``return_decisions`` is set.
    """
    vals = as_points("values", values)
    neighbor_counts = chebyshev_neighbor_counts(vals, vals, spec.counting_radius)
    decisions: "list[MDEFDecision]" = []
    mask = mdef_outliers_against(
        vals, vals, neighbor_counts, spec,
        decisions=decisions if return_decisions else None)
    return (mask, decisions) if return_decisions else mask


def mdef_outliers_against(
        window: np.ndarray, queries: np.ndarray, neighbor_counts: np.ndarray,
        spec: MDEFSpec, *,
        decisions: "list[MDEFDecision] | None" = None) -> np.ndarray:
    """BruteForce-M's outlier mask of ``queries`` against the ``window``.

    ``neighbor_counts[i]`` is query ``i``'s exact counting-neighbourhood
    population in the window.  The grid-cell populations are counted
    from the window's values; each query's sampling cells go through the
    Equation 9 test, :func:`~repro.core.mdef.mdef_statistics`.  Each
    query's full decision is appended to ``decisions`` when it is given.
    """
    n_cells = cell_grid_centers(spec).shape[0]
    shape = (n_cells,) * window.shape[1]
    idx = np.clip(np.floor(window / spec.cell_width).astype(np.int64),
                  0, n_cells - 1)
    grid = np.bincount(np.ravel_multi_index(tuple(idx.T), shape),
                       minlength=n_cells ** len(shape)).reshape(shape)

    lo, hi = sampling_cell_ranges(queries, spec)
    # Queries in blocks of at most BLOCK_CELLS sampling cells.
    step = max(1, BLOCK_CELLS // int((hi - lo).prod(axis=1).max(initial=1)))
    mask = np.empty(queries.shape[0], dtype=bool)
    for start in range(0, queries.shape[0], step):
        block = slice(start, start + step)
        sizes, cells = _cells_in_ranges(lo[block], hi[block])
        decided = mdef_statistics(neighbor_counts[block],
                                  grid[tuple(cells.T)], sizes, spec.k_sigma,
                                  min_mdef=spec.min_mdef)
        mask[block] = decided.is_outlier
        if decisions is not None:
            decisions.extend(decided.tolist())
    return mask
