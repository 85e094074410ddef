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
from typing import Callable, Sequence

import numpy as np

from repro import _sanitize
from repro._exceptions import ParameterError
from repro._validation import as_point
from repro.core._kernels_numpy import BLOCK_CELLS
from repro.core.model import DensityModel

__all__ = [
    "MDEFSpec",
    "MDEFDecision",
    "MDEFDecisions",
    "mdef_statistic",
    "mdef_statistics",
    "cell_grid_centers",
    "sampling_cell_ranges",
    "sampling_cell_centers",
    "MDEFCellTable",
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


@dataclass(frozen=True)
class MDEFDecisions:
    """Outcomes of many MDEF checks: :class:`MDEFDecision`'s fields as
    arrays, one entry per point."""

    is_outlier: np.ndarray
    mdef: np.ndarray
    sigma_mdef: np.ndarray
    neighbor_count: np.ndarray
    cell_mean: np.ndarray
    cell_std: np.ndarray

    def tolist(self) -> "list[MDEFDecision]":
        """One :class:`MDEFDecision` per point, with Python scalars."""
        return [MDEFDecision(*fields) for fields in zip(
            self.is_outlier.tolist(), self.mdef.tolist(),
            self.sigma_mdef.tolist(), self.neighbor_count.tolist(),
            self.cell_mean.tolist(), self.cell_std.tolist())]


def mdef_statistics(neighbor_counts: "np.ndarray | Sequence[float]",
                    cell_counts: "np.ndarray | Sequence[float]",
                    sizes: "np.ndarray | Sequence[int]", k_sigma: float, *,
                    min_mdef: float = 0.0,
                    estimation_variance_per_unit: "np.ndarray | float" = 0.0,
                    ) -> MDEFDecisions:
    """Apply Equation 9 to many points at once.

    Point ``i`` has neighbour count ``neighbor_counts[i]`` and the next
    ``sizes[i]`` entries of ``cell_counts`` as its peer cell
    populations (points one after another).
    ``estimation_variance_per_unit`` is one value for all points or one
    per point.

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

    The moments are ``np.sum`` reductions over each point's cells.
    Points with equal cell counts are reduced together as the rows of
    one C-contiguous array, which sums every row exactly as a 1-d
    ``np.sum`` over that point's cells would, so a point's outcome does
    not depend on the other points of the call.
    """
    neighbor = np.array(neighbor_counts, dtype=float).reshape(-1)
    # np.clip(counts, 0.0, None) is this maximum.
    counts = np.maximum(np.asarray(cell_counts, dtype=float).reshape(-1),
                        0.0)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    m = sizes.size
    size_list = sizes.tolist()
    if neighbor.size != m or sum(size_list) != counts.size:
        raise ParameterError(
            f"need one neighbour count per point ({m}, got {neighbor.size}) "
            f"and sum(sizes) = {sum(size_list)} cell counts "
            f"(got {counts.size})")
    groups = sorted(set(size_list))
    if groups and groups[0] < 1:
        raise ParameterError("cell_counts must be non-empty for every point")
    # A point without evidence keeps mean 1 and variance 0, which keep
    # the arithmetic below finite; its fields are zeroed at the end.
    evident = np.zeros(m, dtype=bool)
    cell_mean = np.ones(m)
    cell_var = np.zeros(m)
    starts = sizes.cumsum() - sizes
    for size in groups:
        if len(groups) == 1:
            rows, block = np.arange(m), counts.reshape(m, size)
        else:
            rows = np.flatnonzero(sizes == size)
            block = counts[starts[rows, None] + np.arange(size)]
        # ndarray.sum is the add.reduce np.sum calls, without its wrapper.
        total = block.sum(axis=1)
        ok = total > _EVIDENCE_FLOOR
        if np.count_nonzero(ok) < ok.size:
            rows, block, total = rows[ok], block[ok], total[ok]
        evident[rows] = True
        mean = (block * block).sum(axis=1) / total
        cell_mean[rows] = mean
        cell_var[rows] = (block * (block - mean[:, None]) ** 2).sum(
            axis=1) / total
    # Python's max(a, b) keeps a unless b > a; the np.where calls below
    # spell that out, so signed zeros come out as the scalar rule's.
    evpu = np.asarray(estimation_variance_per_unit, dtype=float)
    corrected = cell_var - evpu * cell_mean
    corrected = np.where(corrected > 0.0, corrected, 0.0)
    floor = _POISSON_FLOOR * np.sqrt(np.where(1.0 > cell_mean, 1.0,
                                              cell_mean))
    root = np.sqrt(corrected)
    cell_std = np.where(evpu > 0.0, np.where(floor > root, floor, root),
                        np.sqrt(np.where(0.0 > cell_var, 0.0, cell_var)))
    mdef = 1.0 - neighbor / cell_mean
    sigma_mdef = cell_std / cell_mean
    is_outlier = (mdef > k_sigma * sigma_mdef) & (mdef > min_mdef)
    if np.count_nonzero(evident) < m:
        void = ~evident
        for field in (is_outlier, mdef, sigma_mdef, cell_mean, cell_std):
            field[void] = 0
    return MDEFDecisions(is_outlier, mdef, sigma_mdef, neighbor, cell_mean,
                         cell_std)


def mdef_statistic(neighbor_count: float, cell_counts: np.ndarray,
                   k_sigma: float, *, min_mdef: float = 0.0,
                   estimation_variance_per_unit: float = 0.0) -> MDEFDecision:
    """Apply Equation 9 to a neighbour count and its peer cell populations.

    One point's :func:`mdef_statistics`.
    """
    counts = np.asarray(cell_counts, dtype=float).reshape(-1)
    if counts.size == 0:
        raise ParameterError("cell_counts must be non-empty")
    return mdef_statistics(
        [neighbor_count], counts, [counts.size], k_sigma, min_mdef=min_mdef,
        estimation_variance_per_unit=estimation_variance_per_unit,
    ).tolist()[0]


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


class MDEFCellTable:
    """Estimated sampling-cell populations of many density models.

    A cell's population depends only on the model and the cell, so each
    ``(owner, cell)`` pair is estimated once and tabled: an owner is one
    model (an engine stream's, or a detector's single one) and a cell
    is its grid index.  The table holds the touched cells, never the
    whole grid.  Keys are ``owner * grid_cells + flat cell index`` in
    one sorted int64 array, so a lookup for any mix of owners is one
    ``searchsorted``; a sentinel key past every real key keeps the
    positions inside the table.  When composite keys would overflow
    int64, nothing is tabled and every lookup estimates its cells.

    Every population comes from a batched range path that computes
    each query row on its own, so a tabled population equals a fresh
    estimate bit for bit and decisions do not depend on the order of
    checks.  When an owner's model changes, :meth:`drop` forgets its
    entries.
    """

    def __init__(self, n_owners: int, spec: MDEFSpec, n_dims: int) -> None:
        self._spec = spec
        n_cells = cell_grid_centers(spec).size
        self._grid = n_cells ** n_dims
        key_max = int(np.iinfo(np.int64).max)
        #: Row-major strides of the flat grid index; None when the
        #: composite keys do not fit int64, and then nothing is tabled.
        self._strides = None if n_owners * self._grid > key_max \
            else n_cells ** np.arange(n_dims - 1, -1, -1, dtype=np.int64)
        #: Sorted keys of the tabled cells, sentinel last, and their
        #: populations (the sentinel's is NaN).
        self.keys = np.array([key_max], dtype=np.int64)
        self.counts = np.array([np.nan])

    def drop(self, owners: np.ndarray) -> None:
        """Forget every population of ``owners`` (their models changed)."""
        if self.keys.size > 1:
            # The sentinel's owner, key_max // grid, is no real owner.
            keep = ~np.isin(self.keys // self._grid, owners)
            self.keys = self.keys[keep]
            self.counts = self.counts[keep]

    def populations(self, owners: np.ndarray, cells: np.ndarray,
                    estimate: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
                    ) -> np.ndarray:
        """Populations of ``cells`` (grid indices, ``(k, d)``) of ``owners``.

        ``estimate(owners, cells)`` returns the populations of cells
        the table lacks, owners ascending; the new populations enter
        the table in one merge.
        """
        if self._strides is None:
            order = np.argsort(owners, kind="stable")
            out = np.empty(owners.size)
            out[order] = estimate(owners[order], cells[order])
            return out
        keys = owners * self._grid + cells @ self._strides
        at = np.searchsorted(self.keys, keys)
        out = self.counts[at]
        missing = self.keys[at] != keys
        if missing.any():
            new_keys, first, inverse = np.unique(
                keys[missing], return_index=True, return_inverse=True)
            fresh = np.flatnonzero(missing)[first]
            estimated = estimate(owners[fresh], cells[fresh])
            out[missing] = estimated[inverse]
            at = np.searchsorted(self.keys, new_keys)
            self.keys = np.insert(self.keys, at, new_keys)
            self.counts = np.insert(self.counts, at, estimated)
            if _sanitize.ACTIVE:
                _sanitize.check_mdef_table(self)
        return out

    def decide(self, points: np.ndarray, neighbor_counts: np.ndarray,
               owners: np.ndarray, evpu: "np.ndarray | float",
               estimate: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
               ) -> MDEFDecisions:
        """The MDEF test of ``points`` (``(m, d)``), each against its
        owner's model.

        ``neighbor_counts`` are the points' counting-neighbourhood
        populations and ``evpu`` the estimation variance per unit (one
        value, or one per point); the sampling cells come from the
        table, ``estimate`` filling the ones it lacks (see
        :meth:`populations`).
        """
        lo, hi = sampling_cell_ranges(points, self._spec)
        sizes, cells = _cells_in_ranges(lo, hi)
        counts = self.populations(np.repeat(owners, sizes), cells, estimate)
        return mdef_statistics(neighbor_counts, counts, sizes,
                               self._spec.k_sigma,
                               min_mdef=self._spec.min_mdef,
                               estimation_variance_per_unit=evpu)


class MDEFOutlierDetector:
    """A density model bound to an MDEF specification (the ``isMDEFOutlier``
    procedure of Figure 4, estimated as in Figure 3).

    In the MGDD algorithm every leaf binds this detector to its copy of
    the *global* estimator model, so deviations are judged against the
    distribution of the whole region rather than the local stream.

    ``variance_correction`` (default on) subtracts the density model's
    known estimation variance from sigma_hat (see
    :func:`mdef_statistics`); without it the sampling noise of small
    kernel samples systematically masks deviations.

    The detector estimates each sampling cell once: it keeps an
    :class:`MDEFCellTable` with the model as its one owner, and only
    cells a check touches for the first time reach the model.
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
        self._table = MDEFCellTable(1, spec, model.n_dims)

    @property
    def model(self) -> DensityModel:
        """The bound density model."""
        return self._model

    @property
    def spec(self) -> MDEFSpec:
        """The bound MDEF specification."""
        return self._spec

    @property
    def _keys(self) -> np.ndarray:
        """The cell table's sorted keys, sentinel last."""
        return self._table.keys

    @property
    def _counts(self) -> np.ndarray:
        """The cell table's populations, one per key."""
        return self._table.counts

    def _estimate(self, _owners: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Populations of ``cells`` from the model, in one batch."""
        return np.asarray(self._model.neighborhood_count(
            self._centers_1d[cells], self._spec.counting_radius),
            dtype=float).reshape(-1)

    def _decide(self, points: np.ndarray, own: np.ndarray) -> MDEFDecisions:
        return self._table.decide(points, own,
                                  np.zeros(points.shape[0], dtype=np.int64),
                                  self._evpu, self._estimate)

    def check(self, p: "np.ndarray | Sequence[float] | float") -> MDEFDecision:
        """Check one point against the model (Figure 3's estimation)."""
        point = as_point("p", p, self._model.n_dims)
        neighbor = float(np.asarray(self._model.neighborhood_count(
            point, self._spec.counting_radius)).reshape(()))
        return self._decide(point[None, :], np.array([neighbor])).tolist()[0]

    def check_many(self, points: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]",
                   neighbor_counts: "np.ndarray | Sequence[float] | None" = None,
                   ) -> "list[MDEFDecision]":
        """Check a batch of points with batched range queries.

        The points' counting queries go to the model in one batch and
        the sampling cells not yet tabled in another; Equation 9 then
        runs on all points at once.  Decisions equal per-point
        :meth:`check` calls field for field: a point's own count is
        the same Eq. 5 expression whether it is queried alone or in a
        batch.

        ``neighbor_counts`` supplies the points' counting-neighbourhood
        populations instead, for a caller that computed them already.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self._model.n_dims) if self._model.n_dims == 1 \
                else pts.reshape(1, -1)
        if pts.shape[0] == 0:
            return []
        if neighbor_counts is None:
            own = np.asarray(self._model.neighborhood_count(
                pts, self._spec.counting_radius), dtype=float).reshape(-1)
        else:
            own = np.asarray(neighbor_counts, dtype=float).reshape(-1)
            if own.shape[0] != pts.shape[0]:
                raise ParameterError(
                    f"neighbor_counts must hold one count per point "
                    f"({pts.shape[0]}), got {own.shape[0]}")
        return self._decide(pts, own).tolist()
