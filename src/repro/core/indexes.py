"""Theorem 2's sorted-sample index over a model's kernel centres.

:class:`SortedSampleIndex` keeps one sorted view per dimension of an
immutable d-dimensional sample, so a box query touches only the centres
whose support can reach it.  The estimator's pruned single-box range
query is built on it.  Boxes are inclusive (``[low, high]`` per
dimension, boundaries included), the Chebyshev geometry of the rest of
the package.
"""

from __future__ import annotations

import numpy as np

from repro._exceptions import ParameterError

__all__ = ["SortedSampleIndex"]


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
