"""Descriptive statistics of sensor streams (paper Figure 5).

The paper characterises its datasets by min, max, mean, median, standard
deviation and skew.  :func:`summarize` reproduces that table row for any
column of values; the Figure 5 benchmark applies it to our synthetic
stand-ins for the engine and environmental datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as scipy_stats

from repro._exceptions import ParameterError
from repro._validation import as_points

__all__ = ["StreamSummary", "summarize", "summarize_columns"]


@dataclass(frozen=True)
class StreamSummary:
    """One row of the paper's Figure 5 statistics table."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    stddev: float
    skew: float

    def as_row(self) -> "tuple[float, ...]":
        """The (min, max, mean, median, stddev, skew) tuple of Figure 5."""
        return (self.minimum, self.maximum, self.mean, self.median,
                self.stddev, self.skew)


def summarize(values: "np.ndarray | Sequence[float]") -> StreamSummary:
    """Summarise a 1-d array of values in the Figure 5 format."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ParameterError("cannot summarise an empty stream")
    if not np.isfinite(arr).all():
        raise ParameterError("values must be finite")
    return StreamSummary(
        count=int(arr.size),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        stddev=float(arr.std()),
        # A constant column has no spread and skew 0, as pandas'
        # Series.skew gives; scipy returns NaN with a precision warning.
        skew=float(scipy_stats.skew(arr)) if arr.max() > arr.min() else 0.0,
    )


def summarize_columns(values: "np.ndarray | Sequence[Sequence[float]]") -> "list[StreamSummary]":
    """Summarise each column of an ``(n, d)`` array independently."""
    points = as_points("values", values)
    return [summarize(points[:, j]) for j in range(points.shape[1])]
