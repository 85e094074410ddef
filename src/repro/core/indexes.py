"""Incremental exact neighbour-count indexes.

The ground-truth detectors (BruteForce-D / BruteForce-M) need exact
Chebyshev box counts against *sliding* windows.  Recomputing them from
scratch at every arrival is ``O(|W|)`` per query; these indexes maintain
the window incrementally:

* :class:`SortedWindowIndex1D` -- a sorted array over the live window;
  ``O(|W|)`` worst-case insert/expire (array shifts) but cache-friendly
  and exact, with ``O(log |W|)`` interval counts.  The online analogue
  of Theorem 2's sorted-sample bound, applied to raw data.
* :class:`GridCountIndex` -- a uniform-grid bucket index for any
  dimensionality; ``O(1)`` expected insert/remove and box counts that
  touch only the ``O((r / cell)^d)`` overlapping cells.
* :class:`WindowedNeighborIndex` -- a sliding-window wrapper around
  :class:`GridCountIndex` that expires the oldest value automatically.

All counts use the same inclusive Chebyshev geometry as the rest of the
package (`[low, high]` per dimension, boundaries included).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Sequence

import numpy as np

from repro._exceptions import ParameterError
from repro._validation import require_positive, require_positive_int

__all__ = ["SortedSampleIndex", "SortedWindowIndex1D", "GridCountIndex",
           "WindowedNeighborIndex"]


class SortedSampleIndex:
    """Per-dimension sorted views of a fixed d-dimensional sample.

    Theorem 2's sorted-sample index, for any ``d``: one
    ``searchsorted`` per axis bounds the kernel centres whose support
    can reach a query box, the axis with the fewest in-reach candidates
    drives the scan, and its candidates are bound-checked against the
    remaining axes one contiguous column at a time.

    The sample is immutable (estimators are rebuilt, not mutated), so the
    index is a one-shot ``O(d n log n)`` sort plus ``O(d log n)`` per
    query.  It is a cache derived from the points and is never
    snapshotted: its owner rebuilds it on demand.
    """

    def __init__(self, points: np.ndarray) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ParameterError(
                f"points must be a non-empty (n, d) array, got shape {pts.shape}")
        self._d = pts.shape[1]
        order = np.argsort(pts, axis=0, kind="stable")
        #: Per axis: the row order, the sorted column and the column in
        #: row order, each contiguous.
        self._orders = tuple(order.T.copy())
        self._sorted = tuple(np.take_along_axis(pts, order, axis=0).T.copy())
        self._axes = tuple(pts.T.copy())
        for column in self._orders:
            column.flags.writeable = False      # candidates are its views

    def candidates(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Row indices of points inside the inclusive box ``[low, high]``,
        in no particular order."""
        lo = np.asarray(low, dtype=float).reshape(-1)
        hi = np.asarray(high, dtype=float).reshape(-1)
        if lo.shape != (self._d,) or hi.shape != (self._d,):
            raise ParameterError(
                f"low/high must have shape ({self._d},), "
                f"got {lo.shape} and {hi.shape}")
        best, first, last = 0, 0, self._orders[0].size
        for j, column in enumerate(self._sorted):
            f = int(column.searchsorted(lo[j], "left"))
            g = int(column.searchsorted(hi[j], "right"))
            if g - f < last - first:
                best, first, last = j, f, g
        idx = self._orders[best][first:last]
        for j, axis in enumerate(self._axes):
            if j != best and idx.size:
                column = axis.take(idx)
                idx = idx[(column >= lo[j]) & (column <= hi[j])]
        return idx


class SortedWindowIndex1D:
    """Exact interval counts over a sliding window of scalars."""

    def __init__(self, window_size: int) -> None:
        require_positive_int("window_size", window_size)
        self._window_size = window_size
        self._sorted: "list[float]" = []
        self._arrivals: "deque[float]" = deque()

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def window_size(self) -> int:
        """Maximum number of live values."""
        return self._window_size

    def insert(self, value: float) -> "float | None":
        """Add a value; return the expired one once the window is full."""
        if not np.isfinite(value):
            raise ParameterError(f"value must be finite, got {value!r}")
        value = float(value)
        expired = None
        if len(self._arrivals) == self._window_size:
            expired = self._arrivals.popleft()
            position = bisect.bisect_left(self._sorted, expired)
            del self._sorted[position]
        self._arrivals.append(value)
        bisect.insort(self._sorted, value)
        return expired

    def count_in(self, low: float, high: float) -> int:
        """Number of live values in the inclusive interval ``[low, high]``."""
        if high < low:
            raise ParameterError("high must be >= low")
        left = bisect.bisect_left(self._sorted, low)
        right = bisect.bisect_right(self._sorted, high)
        return right - left

    def neighbor_count(self, p: float, r: float) -> int:
        """Number of live values within ``r`` of ``p`` (inclusive)."""
        require_positive("r", r)
        return self.count_in(p - r, p + r)

    def values(self) -> np.ndarray:
        """The live values in sorted order."""
        return np.array(self._sorted)


class GridCountIndex:
    """Exact d-dimensional box counts via uniform-grid buckets.

    Points are bucketed by ``floor(x / cell_width)`` per dimension; a box
    count scans only the buckets the box overlaps and compares the
    candidate points exactly.  Removal uses a swap-with-last, so both
    updates are O(1) expected.
    """

    def __init__(self, cell_width: float, n_dims: int = 1) -> None:
        require_positive("cell_width", cell_width)
        require_positive_int("n_dims", n_dims)
        self._cell_width = cell_width
        self._n_dims = n_dims
        self._cells: "dict[tuple[int, ...], list[np.ndarray]]" = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def n_dims(self) -> int:
        """Point dimensionality."""
        return self._n_dims

    def _key(self, point: np.ndarray) -> "tuple[int, ...]":
        return tuple(int(np.floor(c / self._cell_width)) for c in point)

    def _as_point(self, value) -> np.ndarray:
        point = np.asarray(value, dtype=float).reshape(-1)
        if point.shape != (self._n_dims,):
            raise ParameterError(
                f"point must have {self._n_dims} coordinate(s), "
                f"got shape {point.shape}")
        if not np.isfinite(point).all():
            raise ParameterError("point must be finite")
        return point

    def insert(self, value: "np.ndarray | Sequence[float] | float") -> None:
        """Add one point."""
        point = self._as_point(value)
        self._cells.setdefault(self._key(point), []).append(point)
        self._count += 1

    def remove(self, value: "np.ndarray | Sequence[float] | float") -> None:
        """Remove one point equal to ``value`` (raises if absent)."""
        point = self._as_point(value)
        key = self._key(point)
        bucket = self._cells.get(key)
        if bucket:
            for i, candidate in enumerate(bucket):
                if np.array_equal(candidate, point):
                    bucket[i] = bucket[-1]
                    bucket.pop()
                    if not bucket:
                        del self._cells[key]
                    self._count -= 1
                    return
        raise ParameterError(f"point {point.tolist()} is not in the index")

    def count_box(self, low: "np.ndarray | Sequence[float] | float",
                  high: "np.ndarray | Sequence[float] | float") -> int:
        """Exact count of points in the inclusive box ``[low, high]``."""
        low_pt = self._as_point(low)
        high_pt = self._as_point(high)
        if (high_pt < low_pt).any():
            raise ParameterError("each high must be >= the corresponding low")
        lo_keys = np.floor(low_pt / self._cell_width).astype(int)
        hi_keys = np.floor(high_pt / self._cell_width).astype(int)
        total = 0
        # Iterate the overlapping cells; compare points exactly.
        ranges = [range(lo, hi + 1) for lo, hi in zip(lo_keys, hi_keys)]
        for key in _product(ranges):
            bucket = self._cells.get(key)
            if not bucket:
                continue
            candidates = np.stack(bucket)
            inside = ((candidates >= low_pt) & (candidates <= high_pt)).all(axis=1)
            total += int(inside.sum())
        return total

    def neighbor_count(self, p: "np.ndarray | Sequence[float] | float",
                       r: float) -> int:
        """Exact count of points within Chebyshev distance ``r`` of ``p``."""
        require_positive("r", r)
        point = self._as_point(p)
        return self.count_box(point - r, point + r)


def _product(ranges):
    """Cartesian product of integer ranges as tuples (tiny itertools clone
    kept local to avoid building intermediate lists for the common 1-d
    and 2-d cases)."""
    if len(ranges) == 1:
        for a in ranges[0]:
            yield (a,)
    elif len(ranges) == 2:
        for a in ranges[0]:
            for b in ranges[1]:
                yield (a, b)
    else:
        import itertools
        yield from itertools.product(*ranges)


class WindowedNeighborIndex:
    """A sliding-window neighbour-count index over d-dimensional points.

    Combines :class:`GridCountIndex` with automatic expiry of the oldest
    point once the window is full -- exactly what an online BruteForce-D
    needs.
    """

    def __init__(self, window_size: int, cell_width: float,
                 n_dims: int = 1) -> None:
        require_positive_int("window_size", window_size)
        self._window_size = window_size
        self._grid = GridCountIndex(cell_width, n_dims)
        self._arrivals: "deque[np.ndarray]" = deque()

    def __len__(self) -> int:
        return len(self._grid)

    @property
    def window_size(self) -> int:
        """Maximum number of live points."""
        return self._window_size

    def insert(self, value: "np.ndarray | Sequence[float] | float") -> "np.ndarray | None":
        """Add a point; return the expired one once the window is full."""
        expired = None
        if len(self._arrivals) == self._window_size:
            expired = self._arrivals.popleft()
            self._grid.remove(expired)
        point = np.asarray(value, dtype=float).reshape(-1)
        self._grid.insert(point)
        self._arrivals.append(point)
        return expired

    def neighbor_count(self, p: "np.ndarray | Sequence[float] | float",
                       r: float) -> int:
        """Exact count of live points within ``r`` of ``p``."""
        return self._grid.neighbor_count(p, r)

    def count_box(self, low: "np.ndarray | Sequence[float] | float",
                  high: "np.ndarray | Sequence[float] | float") -> int:
        """Exact count of live points in the inclusive box."""
        return self._grid.count_box(low, high)
