"""Bandwidth selection for kernel density estimators (paper Section 4).

The paper adopts Scott's rule with per-dimension bandwidths

    B_i = sqrt(5) * sigma_i * |R| ** (-1 / (d + 4))

where ``sigma_i`` is the (approximate, sliding-window) standard deviation
of dimension ``i`` and ``|R|`` the kernel sample size.  This is the single
parameter the method has to estimate online, which the paper highlights as
an advantage over parametric model-fitting approaches.
"""

from __future__ import annotations

import numpy as np

from repro._exceptions import ParameterError
from repro._validation import require_positive_int

__all__ = ["scott_bandwidths", "silverman_bandwidths", "MIN_BANDWIDTH"]

#: Lower bound applied to every bandwidth.  A window of identical readings
#: has zero standard deviation; a degenerate zero-width kernel would make
#: every other value an "outlier" with infinite confidence, so we keep a
#: floor comparable to sensor quantisation noise on the [0, 1] domain.
MIN_BANDWIDTH = 1e-4


def _as_stddev(stddev: "float | np.ndarray", n_dims: int | None) -> np.ndarray:
    sigma = np.atleast_1d(np.asarray(stddev, dtype=float))
    if sigma.ndim != 1 and n_dims is None:
        raise ParameterError(
            f"stddev must be scalar or 1-d unless n_dims is given, "
            f"got shape {sigma.shape}")
    if n_dims is not None and sigma.shape[-1] != n_dims:
        raise ParameterError(
            f"stddev has {sigma.shape[-1]} entries but data has {n_dims} dimension(s)")
    if not np.isfinite(sigma).all() or (sigma < 0).any():
        raise ParameterError("stddev entries must be finite and non-negative")
    return sigma


def scott_bandwidths(stddev: "float | np.ndarray", sample_size: int,
                     n_dims: int | None = None) -> np.ndarray:
    """Per-dimension bandwidths ``sqrt(5) * sigma_i * |R|^(-1/(d+4))``.

    Parameters
    ----------
    stddev:
        Standard deviation per dimension (scalar accepted for 1-d data);
        with ``n_dims``, also a ``(..., n_dims)`` array of several
        models' deviations, all built from ``sample_size`` centres.
    sample_size:
        Number of kernel centres ``|R|``.
    n_dims:
        Dimensionality ``d``; inferred from ``stddev`` when omitted.

    Returns
    -------
    numpy.ndarray
        Strictly positive bandwidths, shaped like ``stddev`` (``(d,)``
        for a scalar or vector).
    """
    require_positive_int("sample_size", sample_size)
    sigma = _as_stddev(stddev, n_dims)
    d = sigma.shape[-1]
    factor = np.sqrt(5.0) * sample_size ** (-1.0 / (d + 4))
    return np.maximum(sigma * factor, MIN_BANDWIDTH)


def silverman_bandwidths(stddev: "float | np.ndarray", sample_size: int,
                         n_dims: int | None = None) -> np.ndarray:
    """Silverman's rule-of-thumb bandwidths, for the ablation benchmarks.

    ``B_i = sigma_i * (4 / (d + 2)) ** (1/(d+4)) * |R| ** (-1/(d+4))``.
    """
    require_positive_int("sample_size", sample_size)
    sigma = _as_stddev(stddev, n_dims)
    d = sigma.shape[-1]
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4)) * sample_size ** (-1.0 / (d + 4))
    return np.maximum(sigma * factor, MIN_BANDWIDTH)
