"""Frozen pre-fusion Eq. 1 and Eq. 5 evaluations.

These are copies of the estimator's evaluation loops from before the
fused kernels (chunked broadcasting with temporaries).  They are
deliberately **not** kept in sync with the estimator: they are the
reference that ``test_backend_equivalence.py`` holds the fused numpy
kernels of ``repro.core._kernels_numpy`` bit-identical to.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import Kernel

#: The pre-backend per-chunk cell cap (frozen with the references).
_REFERENCE_CHUNK_CELLS = 4_000_000


def reference_range_batch(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                          centers: np.ndarray,
                          bandwidths: np.ndarray) -> np.ndarray:
    """The estimator's pre-backend batched Eq. 5 evaluation, frozen."""
    out = np.empty(lows.shape[0], dtype=float)
    n, d = centers.shape
    chunk = max(1, _REFERENCE_CHUNK_CELLS // max(1, n * d))
    inv_bw = 1.0 / bandwidths
    for start in range(0, lows.shape[0], chunk):
        lo = lows[start:start + chunk]
        hi = highs[start:start + chunk]
        if d == 1:
            c = centers[None, :, 0]
            z_hi = (hi[:, 0, None] - c) * inv_bw[0]
            z_lo = (lo[:, 0, None] - c) * inv_bw[0]
            per_point = kernel.cdf(z_hi) - kernel.cdf(z_lo)
            out[start:start + chunk] = per_point.mean(axis=1)
            continue
        z_hi = (hi[:, None, :] - centers[None, :, :]) * inv_bw
        z_lo = (lo[:, None, :] - centers[None, :, :]) * inv_bw
        per_dim = kernel.cdf(z_hi) - kernel.cdf(z_lo)
        out[start:start + chunk] = per_dim.prod(axis=2).mean(axis=1)
    return np.clip(out, 0.0, 1.0)


def reference_pdf(kernel: Kernel, queries: np.ndarray, centers: np.ndarray,
                  bandwidths: np.ndarray) -> np.ndarray:
    """The estimator's pre-backend Eq. 1 evaluation, frozen."""
    n, d = centers.shape
    out = np.empty(queries.shape[0], dtype=float)
    chunk = max(1, _REFERENCE_CHUNK_CELLS // max(1, n * d))
    inv_bw = 1.0 / bandwidths
    norm = inv_bw.prod() / n
    for start in range(0, queries.shape[0], chunk):
        q = queries[start:start + chunk]
        u = (q[:, None, :] - centers[None, :, :]) * inv_bw
        out[start:start + chunk] = kernel.profile(u).prod(axis=2).sum(axis=1) * norm
    return out
