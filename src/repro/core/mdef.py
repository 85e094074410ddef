"""MDEF / local-metric outlier detection (paper Sections 3 and 8, Figure 3).

The Multi-Granularity Deviation Factor (Papadimitriou et al., LOCI)
compares a point's *counting neighbourhood* population against the
population that a typical *object* of its sampling neighbourhood sees:

    MDEF(p, r, alpha)       = 1 - n(p, alpha*r) / n_hat(p, r, alpha)
    sigma_MDEF(p, r, alpha) = sigma_hat / n_hat(p, r, alpha)

where ``n(p, alpha*r)`` is the number of values within ``alpha*r`` of
``p`` and ``n_hat`` is the average of ``n(q, alpha*r)`` over the objects
``q`` of the sampling neighbourhood.  Following aLOCI, both moments are
approximated from the populations ``c_i`` of the grid cells (side
``2*alpha*r``) whose centres fall within ``r`` of ``p``: every object in
cell ``i`` is charged the cell's own population, so

    n_hat      = sum_i c_i^2 / sum_i c_i
    sigma_hat2 = sum_i c_i (c_i - n_hat)^2 / sum_i c_i

(the count-weighted mean and variance -- empty cells contain no objects
and therefore contribute nothing).  A value is flagged when

    MDEF > k_sigma * sigma_MDEF            (Equation 9, k_sigma = 3).

The paper estimates all the counts from the kernel density model
(Figure 3): the counting neighbourhood via the range query
``N(p, alpha*r)`` and cell ``i`` via ``N(alpha*r*(2i - 1), alpha*r)``.
This module implements that estimation generically over any
:class:`~repro.core.model.DensityModel`, plus the shared statistic used by
the exact :mod:`~repro.core.baselines` path so model-based and
brute-force decisions apply the *same* rule to different count sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._exceptions import ParameterError
from repro._validation import as_point
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.core.model import DensityModel

__all__ = [
    "MDEFSpec",
    "MDEFDecision",
    "mdef_statistic",
    "cell_grid_centers",
    "sampling_cell_ranges",
    "sampling_cell_centers",
    "MDEFOutlierDetector",
]

#: Cell populations below this are treated as zero when judging whether a
#: sampling neighbourhood carries any evidence at all.
_EVIDENCE_FLOOR = 1e-9


@dataclass(frozen=True)
class MDEFSpec:
    """Parameters of the MDEF outlier test.

    Attributes
    ----------
    sampling_radius:
        ``r``, the radius over which typical cell populations are
        collected (0.08 in the paper's synthetic experiments).
    counting_radius:
        ``alpha * r``, the radius of the counting neighbourhood and the
        half-side of the grid cells (0.01 in the synthetic experiments,
        i.e. ``alpha = 1/8``).
    k_sigma:
        Significance factor of Equation 9; the paper uses 3.
    min_mdef:
        Optional absolute deviation floor: values are flagged only when
        their MDEF also exceeds this.  LOCI is known to assign
        moderately high MDEF (~0.5) to the *edges* of uniform-density
        regions; a floor of ~0.8 restricts flags to genuine local
        voids.  0 (the default) disables the guard.
    """

    sampling_radius: float
    counting_radius: float
    k_sigma: float = 3.0
    min_mdef: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.sampling_radius) or self.sampling_radius <= 0:
            raise ParameterError(
                f"sampling_radius must be positive, got {self.sampling_radius!r}")
        if not np.isfinite(self.counting_radius) or self.counting_radius <= 0:
            raise ParameterError(
                f"counting_radius must be positive, got {self.counting_radius!r}")
        if self.counting_radius >= self.sampling_radius:
            raise ParameterError(
                "counting_radius must be smaller than sampling_radius "
                f"(got {self.counting_radius} >= {self.sampling_radius})")
        if not np.isfinite(self.k_sigma) or self.k_sigma <= 0:
            raise ParameterError(f"k_sigma must be positive, got {self.k_sigma!r}")
        if not np.isfinite(self.min_mdef) or not 0.0 <= self.min_mdef < 1.0:
            raise ParameterError(
                f"min_mdef must lie in [0, 1), got {self.min_mdef!r}")

    @property
    def alpha(self) -> float:
        """The ratio ``alpha = counting_radius / sampling_radius``."""
        return self.counting_radius / self.sampling_radius

    @property
    def cell_width(self) -> float:
        """Grid cell side length, ``2 * alpha * r``."""
        return 2.0 * self.counting_radius


@dataclass(frozen=True)
class MDEFDecision:
    """Outcome of one MDEF outlier check."""

    is_outlier: bool
    mdef: float
    sigma_mdef: float
    #: (Estimated) population of the counting neighbourhood of the point.
    neighbor_count: float
    #: Count-weighted mean population of the sampling-neighbourhood cells
    #: (``n_hat``, aLOCI's estimate of the average per-object count).
    cell_mean: float
    #: Count-weighted standard deviation of those populations (``sigma_hat``).
    cell_std: float


#: Lower bound on the estimated sigma_MDEF when counts come from a
#: sampled model: at least a (two-sided) Poisson term.
_POISSON_FLOOR = 2.0


def mdef_statistic(neighbor_count: float, cell_counts: np.ndarray,
                   k_sigma: float, *, min_mdef: float = 0.0,
                   estimation_variance_per_unit: float = 0.0) -> MDEFDecision:
    """Apply Equation 9 to a neighbour count and its peer cell populations.

    ``n_hat`` and ``sigma_hat`` are the count-weighted moments of the
    cell populations (see the module docstring): every object in a cell
    is charged the cell's own population, which is aLOCI's approximation
    of the per-object neighbourhood counts.  Shared by the
    model-estimated path (Figure 3) and the exact brute-force path so
    both flag by the identical rule.  A sampling neighbourhood with
    (essentially) no population provides no evidence of deviation, so
    the value is not flagged.

    ``estimation_variance_per_unit`` corrects sigma_hat when the cell
    populations are *estimates* from a sampled density model rather than
    exact counts: a cell of estimated population ``c`` carries sampling
    variance of roughly ``(|W| / R_distinct) * c`` (binomial counts
    scaled to the window), which inflates the observed spread and would
    otherwise mask true deviations.  Passing ``|W| / R_distinct`` here
    subtracts that component and floors the result at a Poisson term.
    Exact paths pass 0 and are unaffected.
    """
    counts = np.asarray(cell_counts, dtype=float)
    if counts.size == 0:
        raise ParameterError("cell_counts must be non-empty")
    counts = np.clip(counts, 0.0, None)
    total = float(counts.sum())
    if total <= _EVIDENCE_FLOOR:
        return MDEFDecision(False, 0.0, 0.0, float(neighbor_count), 0.0, 0.0)
    cell_mean = float(np.sum(counts * counts) / total)
    cell_var = float(np.sum(counts * (counts - cell_mean) ** 2) / total)
    if estimation_variance_per_unit > 0.0:
        cell_var = max(0.0, cell_var - estimation_variance_per_unit * cell_mean)
        floor = _POISSON_FLOOR * np.sqrt(max(cell_mean, 1.0))
        cell_std = float(max(np.sqrt(cell_var), floor))
    else:
        cell_std = float(np.sqrt(max(cell_var, 0.0)))
    mdef = 1.0 - float(neighbor_count) / cell_mean
    sigma_mdef = cell_std / cell_mean
    is_outlier = mdef > k_sigma * sigma_mdef and mdef > min_mdef
    return MDEFDecision(is_outlier, mdef, sigma_mdef,
                        float(neighbor_count), cell_mean, cell_std)


def cell_grid_centers(spec: MDEFSpec) -> np.ndarray:
    """Centres of the 1-d grid cells covering ``[0, 1]``: ``alpha*r*(2i - 1)``.

    The d-dimensional grid is the Cartesian product of this array with
    itself; :func:`sampling_cell_centers` enumerates only the cells a
    given point needs.
    """
    width = spec.cell_width
    n_cells = int(np.ceil(1.0 / width))
    return (np.arange(n_cells) + 0.5) * width


def sampling_cell_ranges(points: "np.ndarray | Sequence[Sequence[float]]",
                         spec: MDEFSpec) -> "tuple[np.ndarray, np.ndarray]":
    """Per-dimension index ranges of the sampling cells of each point.

    Grid cell ``i`` of a dimension belongs to a point's sampling
    neighbourhood when its centre lies within ``r`` of the point's
    coordinate (Chebyshev ball, matching the paper's interval geometry);
    a coordinate with no such cell (beyond the grid edge) takes the
    nearest cell instead.  ``|centre - x|`` falls and then rises along
    the sorted centres, so the selected cells are one contiguous run.

    ``points`` has shape ``(m, d)``; returns ``lo`` and ``hi`` of that
    shape: coordinate ``j`` of point ``i`` selects cells
    ``lo[i, j]:hi[i, j]``.
    """
    pts = np.asarray(points, dtype=float)
    centers_1d = cell_grid_centers(spec)
    lo = np.empty(pts.shape, dtype=np.int64)
    hi = np.empty(pts.shape, dtype=np.int64)
    # Bound the (points, d, cells) scratch like the kernels' blocks.
    step = max(1, BLOCK_CELLS // max(1, pts.shape[1] * centers_1d.size))
    for start in range(0, pts.shape[0], step):
        dist = np.abs(centers_1d - pts[start:start + step, :, None])
        inside = dist <= spec.sampling_radius
        n_inside = inside.sum(axis=2)
        first = np.where(n_inside > 0, inside.argmax(axis=2),
                         dist.argmin(axis=2))
        lo[start:start + step] = first
        hi[start:start + step] = first + np.maximum(n_inside, 1)
    return lo, hi


def _cells_in_ranges(lo: np.ndarray,
                     hi: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Enumerate every point's cells from :func:`sampling_cell_ranges`.

    Returns each point's cell count ``(m,)`` and the grid indices of all
    the cells, point after point, ``(total, d)``.  A point's cells come
    in ``itertools.product`` order over its ranges (last dimension
    fastest), the order the cell populations have always had.
    """
    spans = hi - lo
    sizes = spans.prod(axis=1)
    owner = np.repeat(np.arange(sizes.size), sizes)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells = np.empty((owner.size, lo.shape[1]), dtype=np.int64)
    for j in range(lo.shape[1] - 1, -1, -1):
        span = spans[owner, j]
        cells[:, j] = lo[owner, j] + rank % span
        rank //= span
    return sizes, cells


def sampling_cell_centers(p: np.ndarray, spec: MDEFSpec) -> np.ndarray:
    """Centres of the grid cells inside the sampling neighbourhood of ``p``.

    The cells :func:`sampling_cell_ranges` selects, in
    ``itertools.product`` order.  Returns shape ``(m, d)``.
    """
    lo, hi = sampling_cell_ranges(np.reshape(p, (1, -1)), spec)
    return cell_grid_centers(spec)[_cells_in_ranges(lo, hi)[1]]


class MDEFOutlierDetector:
    """A density model bound to an MDEF specification (the ``isMDEFOutlier``
    procedure of Figure 4, estimated as in Figure 3).

    In the MGDD algorithm every leaf binds this detector to its copy of
    the *global* estimator model, so deviations are judged against the
    distribution of the whole region rather than the local stream.

    ``variance_correction`` (default on) subtracts the density model's
    known estimation variance from sigma_hat (see
    :func:`mdef_statistic`); without it the sampling noise of small
    kernel samples systematically masks deviations.

    A cell's population depends only on the model and the cell, so the
    detector estimates each sampling cell once: it keeps a table of the
    populations estimated so far, keyed by flat grid index, and only
    cells a check touches for the first time reach the model.  The
    table holds the touched cells, never the whole grid.  Every
    population comes from the model's batched range path, which
    computes each query row on its own, so a tabled population equals a
    fresh estimate bit for bit and decisions do not depend on the order
    of checks.
    """

    def __init__(self, model: DensityModel, spec: MDEFSpec, *,
                 variance_correction: bool = True) -> None:
        self._model = model
        self._spec = spec
        self._evpu = 0.0
        if variance_correction:
            distinct = getattr(model, "distinct_sample_size", None)
            if distinct:
                self._evpu = model.window_size / max(1, int(distinct))
        self._centers_1d = cell_grid_centers(spec)
        n_cells, d = self._centers_1d.size, model.n_dims
        key_max = np.iinfo(np.int64).max
        #: Row-major strides of the flat grid index; None when the grid
        #: has too many cells for int64 keys, and then nothing is tabled.
        self._strides = None if n_cells ** d > key_max \
            else n_cells ** np.arange(d - 1, -1, -1, dtype=np.int64)
        # Sorted flat indices of the tabled cells and their populations.
        # The sentinel key lies past every index, so searchsorted
        # positions always point into the table.
        self._keys = np.array([key_max], dtype=np.int64)
        self._counts = np.array([np.nan])

    @property
    def model(self) -> DensityModel:
        """The bound density model."""
        return self._model

    @property
    def spec(self) -> MDEFSpec:
        """The bound MDEF specification."""
        return self._spec

    def _populations(self, cells: np.ndarray, points: "np.ndarray | None",
                     ) -> "tuple[np.ndarray, np.ndarray]":
        """Populations of ``cells`` (grid indices, ``(k, d)``), tabled.

        Cells missing from the table are estimated in one
        ``neighborhood_count`` batch, behind the counting queries of
        ``points`` when given, and added to it.  Returns the points' own
        counts and the cells' populations.
        """
        keys = None
        fresh = cells
        if self._strides is not None:
            keys = cells @ self._strides
            missing = self._keys[np.searchsorted(self._keys, keys)] != keys
            fresh = cells[missing]
            if fresh.shape[0]:
                new_keys, first = np.unique(keys[missing], return_index=True)
                fresh = fresh[first]
        queries = self._centers_1d[fresh]
        if points is not None:
            queries = np.concatenate([points, queries])
        counts = np.empty(0)
        if queries.shape[0]:
            counts = np.asarray(self._model.neighborhood_count(
                queries, self._spec.counting_radius), dtype=float).reshape(-1)
        m = 0 if points is None else points.shape[0]
        own, estimated = counts[:m], counts[m:]
        if keys is None:
            return own, estimated
        if estimated.size:
            at = np.searchsorted(self._keys, new_keys)
            self._keys = np.insert(self._keys, at, new_keys)
            self._counts = np.insert(self._counts, at, estimated)
        return own, self._counts[np.searchsorted(self._keys, keys)]

    def _statistic(self, neighbor: float,
                   cell_counts: np.ndarray) -> MDEFDecision:
        return mdef_statistic(neighbor, cell_counts, self._spec.k_sigma,
                              min_mdef=self._spec.min_mdef,
                              estimation_variance_per_unit=self._evpu)

    def check(self, p: "np.ndarray | Sequence[float] | float") -> MDEFDecision:
        """Check one point against the model (Figure 3's estimation)."""
        point = as_point("p", p, self._model.n_dims)
        neighbor = float(np.asarray(self._model.neighborhood_count(
            point, self._spec.counting_radius)).reshape(()))
        lo, hi = sampling_cell_ranges(point[None, :], self._spec)
        _, cell_counts = self._populations(_cells_in_ranges(lo, hi)[1], None)
        return self._statistic(neighbor, cell_counts)

    def check_many(self, points: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
                   neighbor_counts: "np.ndarray | Sequence[float] | None" = None,
                   ) -> "list[MDEFDecision]":
        """Check a batch of points with one fused range-query batch.

        The batch holds every point's counting query and the sampling
        cells not yet tabled; Equation 9 then runs per point.  Decisions
        match per-point :meth:`check` calls up to the round-off between
        the single-point and batched range queries of the point's own
        count.

        ``neighbor_counts`` supplies the points' counting-neighbourhood
        populations instead, for a caller that computed them already
        (the engine counts every stream's readings in one stacked
        kernel call); the batch then holds only untabled cells.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self._model.n_dims) if self._model.n_dims == 1 \
                else pts.reshape(1, -1)
        if pts.shape[0] == 0:
            return []
        lo, hi = sampling_cell_ranges(pts, self._spec)
        sizes, cells = _cells_in_ranges(lo, hi)
        if neighbor_counts is None:
            own, cell_counts = self._populations(cells, pts)
        else:
            own = np.asarray(neighbor_counts, dtype=float).reshape(-1)
            if own.shape[0] != pts.shape[0]:
                raise ParameterError(
                    f"neighbor_counts must hold one count per point "
                    f"({pts.shape[0]}), got {own.shape[0]}")
            _, cell_counts = self._populations(cells, None)
        ends = np.cumsum(sizes).tolist()
        return [self._statistic(neighbor, cell_counts[start:end])
                for neighbor, start, end in zip(own.tolist(), [0] + ends,
                                                ends)]
